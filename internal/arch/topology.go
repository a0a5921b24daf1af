package arch

import (
	"fmt"
	"math/bits"
	"sort"
)

// SliceHash selects a last-level-cache slice from a physical address by
// XOR-folding address bits: bit i of the slice index is the parity of
// popcount(addr & Masks[i]). This is the family of hash functions used
// by sliced LLCs since Sandy Bridge ("Cracking Intel Sandy Bridge's
// Cache Hash Function"): each slice-index bit is the XOR of a fixed set
// of physical address bits.
//
// Every mask bit must sit at or above the page-offset width, so all
// lines of one physical page hash to the same slice — that is what
// keeps "page color" well defined on a sliced cache: a page's color is
// (slice, within-slice color), and the OS can still steer placement by
// choosing frames.
type SliceHash struct {
	Masks []uint64
}

// Slices returns the number of slices the hash selects among.
func (h SliceHash) Slices() int { return 1 << len(h.Masks) }

// SliceOf returns the slice index for a physical address.
func (h SliceHash) SliceOf(addr uint64) int {
	s := 0
	for i, m := range h.Masks {
		s |= (bits.OnesCount64(addr&m) & 1) << i
	}
	return s
}

// Validate checks the hash against the page size: masks must be
// non-empty and every mask bit must lie at or above the page offset, so
// slice selection is a pure function of the frame number.
func (h SliceHash) Validate(pageSize int) error {
	if len(h.Masks) == 0 {
		return fmt.Errorf("arch: slice hash needs at least one mask")
	}
	if len(h.Masks) > 8 {
		return fmt.Errorf("arch: slice hash with %d index bits (max 8)", len(h.Masks))
	}
	pageMask := uint64(pageSize - 1)
	for i, m := range h.Masks {
		if m == 0 {
			return fmt.Errorf("arch: slice hash mask %d is zero", i)
		}
		if m&pageMask != 0 {
			return fmt.Errorf("arch: slice hash mask %d (%#x) uses bits below the %d-byte page offset; a page would straddle slices", i, m, pageSize)
		}
	}
	return nil
}

// XorFoldHash builds an n-bit slice hash over the physical address bits
// [lowBit, highBit): index bit i XORs every (len-th) bit starting at
// lowBit+i, interleaving the bits round-robin across index bits. It is
// the shape of the measured Sandy Bridge functions (each index bit the
// parity of a comb of high address bits) without copying any one die's
// exact constants.
func XorFoldHash(nbits int, lowBit, highBit uint) SliceHash {
	masks := make([]uint64, nbits)
	for b := lowBit; b < highBit; b++ {
		masks[int(b-lowBit)%nbits] |= 1 << b
	}
	return SliceHash{Masks: masks}
}

// Level is one physically indexed cache level of a Topology, from the
// innermost level beyond the on-chip L1s out to the LLC. The virtually
// indexed split L1s stay outside the topology: page mapping cannot help
// them (§2.1), so every Config keeps its L1D/L1I fields.
type Level struct {
	// Name labels the level in reports ("L2", "L3").
	Name string
	// Geom is the geometry of ONE slice of ONE cache instance at this
	// level. An unsliced level's instance is exactly Geom; a sliced
	// level's instance is Slices copies of Geom selected by Hash.
	Geom CacheGeometry
	// CPUsPerCache is the sharing cluster width: how many consecutive
	// CPUs share each cache instance. 1 is private per CPU, NumCPUs is
	// machine-shared. Must divide NumCPUs.
	CPUsPerCache int
	// HitCycles is the stall charged when this level services an on-chip
	// miss.
	HitCycles int
	// Inclusive marks the level inclusion-managed: an eviction at the
	// level above (or, for the LLC, at this level) back-invalidates this
	// level's copies. A non-inclusive level keeps lines the LLC evicted
	// and can service them later without a bus transaction.
	Inclusive bool
	// Slices is the number of hash-selected slices per cache instance;
	// 1 is a conventional set-indexed cache. Must equal Hash.Slices().
	Slices int
	// Hash selects the slice for sliced levels; nil when Slices is 1.
	Hash *SliceHash `json:",omitempty"`
}

// Colors returns the number of page colors the level offers: slices
// times the per-slice colors (per-slice size / (page size * assoc),
// §2.1 generalized). Minimum 1.
func (l Level) Colors(pageSize int) int {
	return l.Slices * l.SliceColors(pageSize)
}

// TotalSize returns the full capacity of one cache instance at this
// level: the per-slice geometry times the slice count. This — not
// Geom.Size — is the number layout decisions (external-cache padding,
// blocking factors) should compare working sets against.
func (l Level) TotalSize() int { return l.Geom.Size * l.Slices }

// SliceColors returns the page colors within one slice.
func (l Level) SliceColors(pageSize int) int {
	n := l.Geom.Size / l.Geom.Assoc / pageSize // page*assoc may overflow
	if n < 1 {
		return 1
	}
	return n
}

// SliceOf returns the slice index serving a physical address (0 for
// unsliced levels).
func (l Level) SliceOf(addr uint64) int {
	if l.Hash == nil {
		return 0
	}
	return l.Hash.SliceOf(addr)
}

// FrameColor returns the page color of a physical frame number at this
// level: the hash-selected slice (constant across the page — Validate
// guarantees no mask bit is below the page offset) concatenated with
// the within-slice color, slice-major. For an unsliced level this is
// the classic frame-number-mod-colors of contiguous physical memory.
func (l Level) FrameColor(frame uint64, pageSize int) int {
	sc := l.SliceColors(pageSize)
	within := int(frame % uint64(sc))
	if l.Hash == nil {
		return within
	}
	return l.Hash.SliceOf(frame*uint64(pageSize))*sc + within
}

// Validate checks one level against the machine shape.
func (l Level) Validate(numCPUs, pageSize int) error {
	if err := l.Geom.Validate(); err != nil {
		return fmt.Errorf("arch: level %s: %w", l.Name, err)
	}
	if l.CPUsPerCache <= 0 || numCPUs%l.CPUsPerCache != 0 {
		return fmt.Errorf("arch: level %s: CPUsPerCache %d must divide NumCPUs %d", l.Name, l.CPUsPerCache, numCPUs)
	}
	if l.HitCycles < 0 {
		return fmt.Errorf("arch: level %s: negative hit latency", l.Name)
	}
	switch {
	case l.Slices < 1:
		return fmt.Errorf("arch: level %s: Slices must be at least 1", l.Name)
	case l.Slices == 1:
		if l.Hash != nil {
			return fmt.Errorf("arch: level %s: unsliced level carries a slice hash", l.Name)
		}
	default:
		if l.Slices&(l.Slices-1) != 0 {
			return fmt.Errorf("arch: level %s: slice count %d not a power of two", l.Name, l.Slices)
		}
		if l.Hash == nil {
			return fmt.Errorf("arch: level %s: %d slices need a slice hash", l.Name, l.Slices)
		}
		if err := l.Hash.Validate(pageSize); err != nil {
			return err
		}
		if got := l.Hash.Slices(); got != l.Slices {
			return fmt.Errorf("arch: level %s: hash selects %d slices but Slices is %d", l.Name, got, l.Slices)
		}
	}
	return nil
}

// Topology is a declarative description of the physically indexed cache
// hierarchy: an ordered list of levels from the innermost (closest to
// the CPU, just beyond the split virtually indexed L1s) to the LLC.
// The LLC — the last level — is where the coherence protocol lives and
// where page colors are defined; inner levels are latency filters
// maintained under the LLC.
//
// A nil Config.Topology means the default topology: the paper's single
// per-CPU physically indexed external cache, expressed by the Config's
// L2 geometry and L2HitCycles fields (see DefaultTopology). All default
// paths are byte-identical to the pre-topology simulator.
type Topology struct {
	// Name identifies the topology in reports and flags.
	Name   string
	Levels []Level
}

// LLC returns the last (coherence- and color-defining) level.
func (t Topology) LLC() Level { return t.Levels[len(t.Levels)-1] }

// Validate checks the whole topology against the machine shape: every
// level valid, line sizes non-decreasing inner to outer with each
// outer line a multiple of the inner (back-invalidation walks inner
// lines within an outer victim), sharing widths non-decreasing (a
// cluster's cache cannot be private to fewer CPUs than the level
// below it spans), and the LLC's per-slice size at least a page.
func (t Topology) Validate(numCPUs, pageSize, l1LineSize int) error {
	if len(t.Levels) == 0 {
		return fmt.Errorf("arch: topology %q has no levels", t.Name)
	}
	prevLine, prevShare := l1LineSize, 1
	for i, l := range t.Levels {
		if err := l.Validate(numCPUs, pageSize); err != nil {
			return err
		}
		if l.Slices > 1 && i != len(t.Levels)-1 {
			return fmt.Errorf("arch: level %s: only the last level may be sliced", l.Name)
		}
		if l.Geom.LineSize < prevLine || l.Geom.LineSize%prevLine != 0 {
			return fmt.Errorf("arch: level %s line size %d must be a multiple of the inner level's %d", l.Name, l.Geom.LineSize, prevLine)
		}
		if l.CPUsPerCache < prevShare {
			return fmt.Errorf("arch: level %s shared by %d CPUs but the inner level spans %d", l.Name, l.CPUsPerCache, prevShare)
		}
		prevLine, prevShare = l.Geom.LineSize, l.CPUsPerCache
	}
	if llc := t.LLC(); llc.Geom.Size < pageSize {
		return fmt.Errorf("arch: LLC slice (%d) smaller than a page (%d)", llc.Geom.Size, pageSize)
	}
	return nil
}

// DefaultTopology expresses a Config's classic two-level machine — per-
// CPU virtually indexed L1s over a per-CPU physically indexed external
// cache — as a one-level topology. It is what every simulator path sees
// when Config.Topology is nil.
func DefaultTopology(c Config) Topology {
	return Topology{
		Name: "default",
		Levels: []Level{{
			Name:         "L2",
			Geom:         c.L2,
			CPUsPerCache: 1,
			HitCycles:    c.L2HitCycles,
			Inclusive:    true,
			Slices:       1,
		}},
	}
}

// Topo resolves the effective topology: the configured one, or the
// default expression of the L2 fields.
func (c Config) Topo() Topology {
	if c.Topology != nil {
		return *c.Topology
	}
	return DefaultTopology(c)
}

// FrameColor returns the page color of a physical frame number under
// the effective topology's LLC. For the default (unsliced) topology it
// is frame mod Colors(), the layout of contiguous physical memory under
// a physically indexed cache.
func (c Config) FrameColor(frame uint64) int {
	if c.Topology == nil {
		return int(frame % uint64(c.Colors()))
	}
	return c.Topology.LLC().FrameColor(frame, c.PageSize)
}

// topologyBuilders maps topology names to constructors. Constructors
// derive every geometry from the Config they are applied to (its L2
// geometry carries the machine scale), so a named topology composes
// with -scale and both machine presets. "default" is the nil topology.
var topologyBuilders = map[string]func(Config) Topology{
	"default":      nil,
	"clustered-l3": clusteredL3,
	"sliced-llc4":  slicedLLC4,
}

// TopologyNames lists the selectable topology names, sorted.
func TopologyNames() []string {
	names := make([]string, 0, len(topologyBuilders))
	for n := range topologyBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// KnownTopology reports whether name selects a shipped topology
// ("" means default).
func KnownTopology(name string) bool {
	if name == "" {
		return true
	}
	_, ok := topologyBuilders[name]
	return ok
}

// ApplyTopology returns cfg with the named topology installed (and the
// name folded into the machine name so results are distinguishable).
// "default" and "" return cfg unchanged.
func ApplyTopology(cfg Config, name string) (Config, error) {
	if name == "" || name == "default" {
		return cfg, nil
	}
	build, ok := topologyBuilders[name]
	if !ok {
		return Config{}, fmt.Errorf("arch: unknown topology %q (have %v)", name, TopologyNames())
	}
	t := build(cfg)
	cfg.Topology = &t
	cfg.Name = cfg.Name + "+" + name
	return cfg, nil
}

// clusteredL3 is the 3-level configuration: a private per-CPU L2 of
// half the base external cache, under a 4-CPU-cluster shared L3 of
// twice the base external cache. Latencies straddle the base machine's
// external hit cost: the private L2 is closer, the shared L3 farther.
func clusteredL3(cfg Config) Topology {
	cluster := 4
	if cfg.NumCPUs < cluster {
		cluster = cfg.NumCPUs
	}
	return Topology{
		Name: "clustered-l3",
		Levels: []Level{
			{
				Name:         "L2",
				Geom:         CacheGeometry{Size: FloorPow2(maxInt(cfg.L2.Size/2, 16<<10)), LineSize: cfg.L2.LineSize, Assoc: 4},
				CPUsPerCache: 1,
				HitCycles:    maxInt(cfg.L2HitCycles/2, 1),
				Inclusive:    true,
				Slices:       1,
			},
			{
				Name:         "L3",
				Geom:         CacheGeometry{Size: FloorPow2(cfg.L2.Size) * 2, LineSize: cfg.L2.LineSize, Assoc: 4},
				CPUsPerCache: cluster,
				HitCycles:    cfg.L2HitCycles * 2,
				Inclusive:    true,
				Slices:       1,
			},
		},
	}
}

// slicedLLC4 is the modern sliced-LLC configuration: one machine-shared
// last-level cache of four hash-selected slices, each half the base
// external cache, 2-way. The slice hash XOR-folds the physical address
// bits from the page offset up through bit 27, the published shape of
// the Sandy Bridge function scaled to the simulated memory.
func slicedLLC4(cfg Config) Topology {
	h := XorFoldHash(2, cfg.PageShift(), 28)
	return Topology{
		Name: "sliced-llc4",
		Levels: []Level{{
			Name:         "LLC",
			Geom:         CacheGeometry{Size: FloorPow2(maxInt(cfg.L2.Size/2, 16<<10)), LineSize: cfg.L2.LineSize, Assoc: 2},
			CPUsPerCache: cfg.NumCPUs,
			HitCycles:    cfg.L2HitCycles * 2,
			Inclusive:    true,
			Slices:       4,
			Hash:         &h,
		}},
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
