package arch

import (
	"fmt"
	"math"
)

// CacheGeometry describes one cache level.
type CacheGeometry struct {
	Size     int // total bytes
	LineSize int // bytes per line
	Assoc    int // ways; 1 = direct-mapped
}

// Lines returns the number of lines in the cache.
func (g CacheGeometry) Lines() int { return g.Size / g.LineSize }

// Sets returns the number of sets.
func (g CacheGeometry) Sets() int { return g.Size / (g.LineSize * g.Assoc) }

// LineShift returns log2(LineSize). Validate guarantees the line size is
// a power of two, so shifting by it replaces 64-bit division on the
// simulator's per-reference hot path.
func (g CacheGeometry) LineShift() uint { return Log2(g.LineSize) }

// SetOf maps an address to its set index.
func (g CacheGeometry) SetOf(addr uint64) int {
	return int((addr >> g.LineShift()) & uint64(g.Sets()-1))
}

// TagOf returns the tag for addr.
func (g CacheGeometry) TagOf(addr uint64) uint64 {
	return addr >> g.LineShift() >> Log2(g.Sets())
}

// LineAddr returns addr rounded down to its line boundary.
func (g CacheGeometry) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(g.LineSize-1)
}

// Log2 returns log2(x) for a positive power of two x (0 otherwise).
func Log2(x int) uint {
	var s uint
	for x > 1 {
		x >>= 1
		s++
	}
	return s
}

// FloorPow2 rounds x down to the nearest power of two (minimum 1).
// Scaled geometry must pass through here: dividing a cache size by an
// arbitrary scale factor can yield a non-power-of-two, which would turn
// every downstream shift-and-mask index computation into silent
// garbage. For power-of-two scales this is the identity, so the
// paper's configurations are unchanged.
func FloorPow2(x int) int {
	if x < 1 {
		return 1
	}
	p := 1
	for p <= x/2 {
		p <<= 1
	}
	return p
}

// Validate reports whether the geometry is internally consistent
// (power-of-two sizes, line divides size, associativity sane). Requiring
// a power-of-two set count here — once, at configuration time — is what
// lets every address→set and address→page computation downstream be a
// shift-and-mask instead of a 64-bit division.
func (g CacheGeometry) Validate() error {
	switch {
	case g.Size <= 0 || g.LineSize <= 0 || g.Assoc <= 0:
		return fmt.Errorf("arch: non-positive cache parameter %+v", g)
	case g.LineSize > g.Size || g.Assoc > g.Size/g.LineSize: // line*assoc itself may overflow
		return fmt.Errorf("arch: line*assoc (%d*%d) exceeds size %d", g.LineSize, g.Assoc, g.Size)
	case g.Size%(g.LineSize*g.Assoc) != 0:
		return fmt.Errorf("arch: size %d not divisible by line*assoc (%d*%d)", g.Size, g.LineSize, g.Assoc)
	case g.Size&(g.Size-1) != 0:
		return fmt.Errorf("arch: size %d not a power of two", g.Size)
	case g.LineSize&(g.LineSize-1) != 0:
		return fmt.Errorf("arch: line size %d not a power of two", g.LineSize)
	}
	sets := g.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("arch: set count %d (size %d / line %d / assoc %d) not a power of two", sets, g.Size, g.LineSize, g.Assoc)
	}
	// A cache way packs its tag and two state bits in one word, so the
	// line-offset and set-index bits it drops must number at least two.
	if g.LineSize*sets < 4 {
		return fmt.Errorf("arch: line %d x %d sets spans under 4 bytes per way", g.LineSize, sets)
	}
	return nil
}

// Config is a full machine description.
type Config struct {
	Name    string
	NumCPUs int

	ClockMHz int // processor clock; 1 instruction per cycle (single-issue)

	L1D CacheGeometry // on-chip, virtually indexed: page mapping cannot help it
	L1I CacheGeometry
	L2  CacheGeometry // external, physically indexed: page colors matter here

	// Topology, when non-nil, replaces the implicit single-level external
	// cache described by L2/L2HitCycles with a declarative multi-level,
	// possibly sliced hierarchy (see Topology). Nil means the default
	// topology — the paper's machine — and keeps every simulator path
	// byte-identical to the pre-topology code.
	Topology *Topology `json:",omitempty"`

	PageSize int

	// Latencies in CPU cycles.
	L1HitCycles     int // charged as part of execution (0 extra stall)
	L2HitCycles     int // stall on an L1 miss that hits in L2
	MemCycles       int // stall for a line fetched from memory (no contention)
	RemoteCycles    int // stall for a line fetched dirty from another CPU's cache
	TLBMissCycles   int // software TLB refill (kernel time)
	PageFaultCycles int // kernel page-fault service (kernel time)
	BarrierCycles   int // software barrier cost per CPU per episode
	ForkCycles      int // master dispatching a parallel region
	// ForkSkewCycles is the per-slave dispatch serialization: the master
	// releases slaves one at a time, so CPU i starts i*skew cycles after
	// CPU 0. Without it, identical per-CPU mappings make every CPU miss
	// on the same cycle and the bus sees worst-case convoys that real
	// machines' dispatch and DRAM jitter break up.
	ForkSkewCycles int

	// Bus: split-transaction, finite bandwidth.
	BusBytesPerCycle float64 // 1.2 GB/s at 400 MHz = 3 bytes/cycle
	BusOverhead      int     // fixed arbitration+address cycles per transaction

	// MemJitterCycles bounds the deterministic pseudo-random variation
	// added to each memory access's latency, modeling DRAM bank and
	// refresh timing variance. Without it, CPUs with identical cache
	// layouts (e.g. under CDPC) march in perfect lockstep and every miss
	// becomes a worst-case bus convoy that no real machine sustains.
	MemJitterCycles int

	TLBEntries int

	// WriteBufferEntries bounds the per-CPU write-back buffer: dirty
	// victims wait there for the bus, and a full buffer stalls the CPU
	// until the oldest write-back drains. 0 disables the limit.
	WriteBufferEntries int

	// Prefetch engine (R10000-style, §6.2).
	MaxOutstandingPrefetches int // a further prefetch stalls the CPU

	MemoryMB int // physical memory size
}

// Colors returns the number of page colors of the last-level cache:
// cache size / (page size * associativity) (§2.1), generalized to
// slices × per-slice colors under an explicit topology.
func (c Config) Colors() int {
	if c.Topology != nil {
		return c.Topology.LLC().Colors(c.PageSize)
	}
	n := c.L2.Size / c.L2.Assoc / c.PageSize // page*assoc may overflow
	if n < 1 {
		return 1
	}
	return n
}

// PageShift returns log2(PageSize).
func (c Config) PageShift() uint { return Log2(c.PageSize) }

// CyclesFromNS converts a wall-clock latency to cycles at this clock.
func (c Config) CyclesFromNS(ns int) int { return ns * c.ClockMHz / 1000 }

// Validate checks the full configuration.
func (c Config) Validate() error {
	if c.NumCPUs <= 0 {
		return fmt.Errorf("arch: NumCPUs must be positive, got %d", c.NumCPUs)
	}
	if c.PageSize <= 0 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("arch: page size %d must be a positive power of two", c.PageSize)
	}
	for _, g := range []CacheGeometry{c.L1D, c.L1I, c.L2} {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	if c.L2.Size < c.PageSize {
		return fmt.Errorf("arch: L2 (%d) smaller than a page (%d)", c.L2.Size, c.PageSize)
	}
	if c.Topology != nil {
		if err := c.Topology.Validate(c.NumCPUs, c.PageSize, c.L1D.LineSize); err != nil {
			return err
		}
	}
	if units := c.NumCPUs / c.Topo().LLC().CPUsPerCache; units > 64 {
		return fmt.Errorf("arch: %d LLC units; the coherence directory tracks at most 64", units)
	}
	if c.BusBytesPerCycle <= 0 {
		return fmt.Errorf("arch: bus bandwidth must be positive")
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("arch: TLBEntries must be positive, got %d", c.TLBEntries)
	}
	if c.MemoryMB <= 0 || c.MemoryMB > math.MaxInt>>20 || c.MemoryMB<<20 < c.PageSize {
		return fmt.Errorf("arch: memory size %d MB must be positive and hold at least one page", c.MemoryMB)
	}
	return nil
}

// Base returns the paper's simulated base machine (§3.2) scaled by 1/scale.
// scale=1 is the paper's exact configuration: 400 MHz R4400s, 32 KB 2-way
// split L1 with 32 B lines, 1 MB direct-mapped L2 with 128 B lines,
// 500 ns memory / 750 ns remote latency, 1.2 GB/s bus.
//
// Scaling divides cache and memory sizes but keeps the 4 KB page size, so
// the number of colors shrinks proportionally; data sets are scaled by the
// same factor in package workloads, preserving the working-set-to-cache
// ratios that drive every result in the paper.
func Base(ncpu, scale int) Config {
	if scale < 1 {
		scale = 1
	}
	c := Config{
		Name:    fmt.Sprintf("simos-1/%d", scale),
		NumCPUs: ncpu,

		ClockMHz: 400,

		L1D: CacheGeometry{Size: FloorPow2(max(32<<10/scale, 4<<10)), LineSize: 32, Assoc: 2},
		L1I: CacheGeometry{Size: FloorPow2(max(32<<10/scale, 4<<10)), LineSize: 32, Assoc: 2},
		L2:  CacheGeometry{Size: FloorPow2(max(1<<20/scale, 16<<10)), LineSize: 128, Assoc: 1},

		PageSize: 4 << 10,

		L1HitCycles:     1,
		L2HitCycles:     20,  // ~50 ns external SRAM
		MemCycles:       200, // 500 ns
		RemoteCycles:    300, // 750 ns
		TLBMissCycles:   60,
		PageFaultCycles: 4000,
		BarrierCycles:   200,
		ForkCycles:      400,
		ForkSkewCycles:  45,

		BusBytesPerCycle: 3.0, // 1.2 GB/s at 400 MHz
		BusOverhead:      8,
		MemJitterCycles:  24,

		TLBEntries: 64,

		WriteBufferEntries: 8,

		MaxOutstandingPrefetches: 4,

		MemoryMB: max(512/scale, 8),
	}
	return c
}

// Alpha returns the validation machine of §7 scaled by 1/scale: a 350 MHz
// AlphaServer 8400 with a 4 MB direct-mapped external cache per CPU.
func Alpha(ncpu, scale int) Config {
	c := Base(ncpu, scale)
	c.Name = fmt.Sprintf("alpha-1/%d", scale)
	c.ClockMHz = 350
	c.L2 = CacheGeometry{Size: FloorPow2(max(4<<20/scale, 16<<10)), LineSize: 64, Assoc: 1}
	c.L1D = CacheGeometry{Size: 8 << 10, LineSize: 32, Assoc: 1}
	c.L1I = c.L1D
	c.MemCycles = 180
	c.RemoteCycles = 280
	c.BusBytesPerCycle = 4.5 // the 8400's bus is wider than the base machine's
	return c
}

// WithL2 returns a copy of c with the external-cache geometry replaced
// (used by the Figure 7 associativity and size sweeps).
func (c Config) WithL2(g CacheGeometry) Config {
	c.L2 = g
	return c
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
