package obs

import (
	"fmt"
	"sort"
)

// MissClass labels one external-cache miss for attribution. It mirrors
// the simulator's classification (coherence class plus the shadow-cache
// conflict/capacity split) and adds the instruction-fetch class that the
// machine-wide counters fold into plain L2 misses.
type MissClass uint8

// The attribution classes.
const (
	Cold MissClass = iota
	Conflict
	Capacity
	TrueShare
	FalseShare
	InstFetch

	// NumClasses sizes ClassCounts.
	NumClasses
)

// String implements fmt.Stringer.
func (c MissClass) String() string {
	switch c {
	case Cold:
		return "cold"
	case Conflict:
		return "conflict"
	case Capacity:
		return "capacity"
	case TrueShare:
		return "true-share"
	case FalseShare:
		return "false-share"
	case InstFetch:
		return "inst-fetch"
	default:
		return fmt.Sprintf("MissClass(%d)", uint8(c))
	}
}

// ClassCounts is a per-class miss histogram.
type ClassCounts [NumClasses]uint64

// Total sums all classes.
func (c *ClassCounts) Total() uint64 {
	var t uint64
	for _, n := range c {
		t += n
	}
	return t
}

// PageStats is the attribution record of one virtual page of one
// process (virtual pages are per-address-space, so attribution keys on
// the pair; PID is 0 on single-process machines).
type PageStats struct {
	PID    int
	VPN    uint64
	Color  int // frame color at the page's most recent miss
	Misses ClassCounts
	// StallCycles is the total miss stall attributed to this page.
	StallCycles uint64
}

// pageKey identifies one process's virtual page.
type pageKey struct {
	pid int
	vpn uint64
}

// Options configures a Collector.
type Options struct {
	// Tracer, when non-nil, receives the structured event stream (page
	// faults, hint outcomes, recolorings, conflict-miss bursts).
	Tracer Tracer
	// BurstThreshold is how many conflict misses a single page takes,
	// without an intervening non-conflict miss, before a ConflictBurst
	// event is emitted; 0 uses DefaultBurstThreshold.
	BurstThreshold uint32
}

// DefaultBurstThreshold is the conflict-run length that counts as a
// burst: half a page's worth of lines thrashing is well past noise.
const DefaultBurstThreshold = 32

// Collector accumulates attribution for one simulation run. Attach it
// via sim.Options.Obs (or harness.Spec.Obs); the simulator fills it
// during Run and snapshots the set-level and allocator state at the end.
// Not safe for concurrent use, and not reusable across runs.
type Collector struct {
	tracer Tracer
	burstN uint32

	colors       int
	sets         int
	setsPerColor int
	slices       int
	sliceSets    int

	perColor      []ClassCounts
	perColorStall []uint64
	pages         map[pageKey]*PageStats
	burst         map[pageKey]uint32

	// Per-set external-cache profile, summed over CPUs (filled by the
	// simulator at the end of the run from the cache SetProfiles).
	SetMisses        []uint64
	SetEvictions     []uint64
	SetInvalidations []uint64
	// SetOccupancy is the fraction of valid ways per set at run end,
	// averaged over CPUs.
	SetOccupancy []float64

	// Per-slice attribution on sliced-LLC topologies (nil otherwise):
	// SliceMisses aggregates SetMisses by slice (global set numbering is
	// slice-major, so slice = set / sliceSets), SliceOccupancy averages
	// SetOccupancy the same way. Filled by RecordSetProfile after
	// InitSlices has sized them.
	SliceMisses    []uint64
	SliceOccupancy []float64

	// Allocator/VM snapshot at run end.
	ColorMapped []int // mapped pages per color
	ColorFree   []int // free frames per color
	Faults      uint64
	HintedFault uint64
	HonoredHint uint64
	Recolorings uint64

	// CrossDomain counts data misses whose evicted victim belonged to
	// another isolation domain (or another process, unpartitioned) —
	// the co-scheduled collision pathology. perColorCross breaks the
	// count down by the victim frame's color; on a partitioned run both
	// must stay zero (the simulator's audit invariant 12).
	CrossDomain   uint64
	perColorCross []uint64
}

// NewCollector creates an empty collector.
func NewCollector(o Options) *Collector {
	n := o.BurstThreshold
	if n == 0 {
		n = DefaultBurstThreshold
	}
	return &Collector{
		tracer: o.Tracer,
		burstN: n,
		pages:  make(map[pageKey]*PageStats),
		burst:  make(map[pageKey]uint32),
	}
}

// Init sizes the per-color tables for the machine under test; the
// simulator calls it from New. setsPerColor is the number of external-
// cache sets one page-color region spans (pageSize / lineSize).
func (c *Collector) Init(colors, sets, setsPerColor int) {
	c.colors = colors
	c.sets = sets
	c.setsPerColor = setsPerColor
	c.perColor = make([]ClassCounts, colors)
	c.perColorStall = make([]uint64, colors)
	c.perColorCross = make([]uint64, colors)
}

// Colors returns the color count the collector was initialized with.
func (c *Collector) Colors() int { return c.colors }

// InitSlices declares a sliced LLC: slices hash-selected slices of
// sliceSets sets each. The simulator calls it after Init when the
// topology's last level is sliced; RecordSetProfile then derives the
// per-slice aggregates from the slice-major set profile.
func (c *Collector) InitSlices(slices, sliceSets int) {
	c.slices = slices
	c.sliceSets = sliceSets
}

// Slices returns the LLC slice count (0 when unsliced).
func (c *Collector) Slices() int { return c.slices }

// ResetAttribution discards miss attribution accumulated so far. The
// simulator calls it at the start of the measured pass so the collector
// covers exactly the region the Result's counters cover — init and
// warm-up misses are dropped. The event stream is left intact: warm-up
// events carry cycle stamps and remain meaningful as history.
func (c *Collector) ResetAttribution() {
	for i := range c.perColor {
		c.perColor[i] = ClassCounts{}
		c.perColorStall[i] = 0
		c.perColorCross[i] = 0
	}
	c.CrossDomain = 0
	clear(c.pages)
	clear(c.burst)
}

// RecordMiss attributes one external-cache miss to (vpn, color, class)
// and advances the conflict-burst detector. Process 0 owns the page
// (the single-process legacy path).
func (c *Collector) RecordMiss(cpu int, cycle, vpn uint64, color int, class MissClass, stall uint64) {
	c.RecordMissPID(0, cpu, cycle, vpn, color, class, stall)
}

// RecordMissPID attributes one external-cache miss of process pid to
// (vpn, color, class) and advances the conflict-burst detector.
func (c *Collector) RecordMissPID(pid, cpu int, cycle, vpn uint64, color int, class MissClass, stall uint64) {
	if color >= 0 && color < len(c.perColor) {
		c.perColor[color][class]++
		c.perColorStall[color] += stall
	}
	k := pageKey{pid, vpn}
	p := c.pages[k]
	if p == nil {
		p = &PageStats{PID: pid, VPN: vpn}
		c.pages[k] = p
	}
	p.Color = color
	p.Misses[class]++
	p.StallCycles += stall

	if class == Conflict {
		c.burst[k]++
		if c.burst[k] >= c.burstN {
			c.emit(Event{Kind: EvConflictBurst, Cycle: cycle, CPU: cpu, PID: pid, VPN: vpn,
				Color: color, Prev: -1, Count: uint64(c.burst[k])})
			c.burst[k] = 0
		}
	} else if c.burst[k] != 0 {
		c.burst[k] = 0
	}
}

// RecordCrossDomainPID attributes one cross-domain conflict miss:
// process pid's miss on vpn evicted a victim frame of victimColor that
// belonged to a foreign isolation domain (or foreign process). Called
// by the simulator after the matching RecordMissPID.
func (c *Collector) RecordCrossDomainPID(pid, cpu int, cycle, vpn uint64, victimColor int) {
	c.CrossDomain++
	if victimColor >= 0 && victimColor < len(c.perColorCross) {
		c.perColorCross[victimColor]++
	}
}

// RecordFault records a serviced page fault of process 0 and its hint
// outcome (the single-process legacy path).
func (c *Collector) RecordFault(cpu int, cycle, vpn uint64, color int, hinted, honored bool) {
	c.RecordFaultPID(0, cpu, cycle, vpn, color, hinted, honored)
}

// RecordFaultPID records a serviced page fault of process pid and its
// hint outcome.
func (c *Collector) RecordFaultPID(pid, cpu int, cycle, vpn uint64, color int, hinted, honored bool) {
	kind := EvPageFault
	switch {
	case hinted && honored:
		kind = EvHintHonored
	case hinted:
		kind = EvHintDenied
	}
	c.emit(Event{Kind: kind, Cycle: cycle, CPU: cpu, PID: pid, VPN: vpn, Color: color, Prev: -1})
}

// RecordRecolor records a dynamic-policy page move (with its TLB
// shootdown) from oldColor to newColor.
func (c *Collector) RecordRecolor(cpu int, cycle, vpn uint64, oldColor, newColor int) {
	c.Recolorings++
	if p := c.pages[pageKey{0, vpn}]; p != nil {
		p.Color = newColor
	}
	c.emit(Event{Kind: EvRecolor, Cycle: cycle, CPU: cpu, VPN: vpn, Color: newColor, Prev: oldColor})
}

// RecordSetProfile installs the per-set external-cache counters the
// simulator aggregated over CPUs at the end of the run.
func (c *Collector) RecordSetProfile(misses, evictions, invalidations []uint64, occupancy []float64) {
	c.SetMisses = misses
	c.SetEvictions = evictions
	c.SetInvalidations = invalidations
	c.SetOccupancy = occupancy
	if c.slices <= 0 || c.sliceSets <= 0 {
		return
	}
	c.SliceMisses = make([]uint64, c.slices)
	c.SliceOccupancy = make([]float64, c.slices)
	for s, n := range misses {
		if sl := s / c.sliceSets; sl < c.slices {
			c.SliceMisses[sl] += n
		}
	}
	for s, o := range occupancy {
		if sl := s / c.sliceSets; sl < c.slices {
			c.SliceOccupancy[sl] += o / float64(c.sliceSets)
		}
	}
}

// RecordAllocation installs the end-of-run VM/allocator snapshot.
func (c *Collector) RecordAllocation(mapped, free []int, faults, hinted, honored uint64) {
	c.ColorMapped = mapped
	c.ColorFree = free
	c.Faults = faults
	c.HintedFault = hinted
	c.HonoredHint = honored
}

func (c *Collector) emit(e Event) {
	if c.tracer != nil {
		c.tracer.Trace(e)
	}
}

// PerColor returns the per-color miss histograms (indexed by color).
func (c *Collector) PerColor() []ClassCounts { return c.perColor }

// ColorStall returns the per-color attributed miss-stall cycles.
func (c *Collector) ColorStall() []uint64 { return c.perColorStall }

// Page returns vpn's attribution record for process 0, or nil if the
// page never missed.
func (c *Collector) Page(vpn uint64) *PageStats { return c.pages[pageKey{0, vpn}] }

// Pages returns how many distinct pages took at least one miss.
func (c *Collector) Pages() int { return len(c.pages) }

// TopPages returns the k hottest pages by total miss count (ties broken
// by ascending process id then VPN, so output is deterministic).
func (c *Collector) TopPages(k int) []PageStats {
	all := make([]PageStats, 0, len(c.pages))
	for _, p := range c.pages {
		all = append(all, *p)
	}
	sort.Slice(all, func(i, j int) bool {
		ti, tj := all[i].Misses.Total(), all[j].Misses.Total()
		if ti != tj {
			return ti > tj
		}
		if all[i].PID != all[j].PID {
			return all[i].PID < all[j].PID
		}
		return all[i].VPN < all[j].VPN
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// Heat reshapes a per-set counter slice into the color×set matrix the
// heatmap renders: row r is color r, column j is the j-th set within
// that color's page region. Under a physically indexed cache the set
// index's high bits above the within-page sets are exactly the page
// color, so set s belongs to color s/setsPerColor.
func (c *Collector) Heat(perSet []uint64) [][]float64 {
	if c.setsPerColor == 0 || len(perSet) == 0 {
		return nil
	}
	rows := make([][]float64, c.colors)
	for r := range rows {
		rows[r] = make([]float64, c.setsPerColor)
		for j := 0; j < c.setsPerColor; j++ {
			s := r*c.setsPerColor + j
			if s < len(perSet) {
				rows[r][j] = float64(perSet[s])
			}
		}
	}
	return rows
}
