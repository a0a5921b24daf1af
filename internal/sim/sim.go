package sim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/ir"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Options configures a simulation run.
type Options struct {
	Config arch.Config

	// Policy constructs the page mapping policy; nil defaults to page
	// coloring (IRIX's policy, the paper's base configuration).
	Policy vm.Policy

	// Hints, if non-nil, is installed through the address space's Advise
	// call before execution (the CDPC path).
	Hints map[uint64]int

	// TouchOrder, if non-nil, faults these pages in order on CPU 0 before
	// execution — the paper's Digital UNIX emulation of page coloring and
	// CDPC on top of bin hopping (§5.3). The serialized fault time is
	// charged to the master's kernel bucket.
	TouchOrder []uint64

	// SkipWarmup skips the unmeasured warm-up pass over the phases; unit
	// tests use it, experiments leave it off so cold misses are discarded
	// as in the paper (§3.2).
	SkipWarmup bool

	// DisableClassification turns off the shadow-cache conflict/capacity
	// split (replacement misses all count as capacity); the ablation
	// benchmark measures its simulation cost.
	DisableClassification bool

	// Recolor, if non-nil, enables the dynamic page recoloring policy the
	// paper contrasts CDPC against (§2.1/§2.2): conflicting pages are
	// detected by miss counters and moved to colder colors at run time,
	// paying copy, TLB-shootdown and invalidation costs.
	Recolor *vm.RecolorPolicy

	// ExhaustColors drains the free-frame pools of the given colors
	// before execution, simulating memory pressure: faults preferring
	// those colors fall back to other pools and CDPC hints go unhonored
	// (§5 step 3: the OS "may not be able to honor the hints if the
	// machine is under memory pressure").
	ExhaustColors []int

	// Obs, when non-nil, collects per-color/per-page miss attribution,
	// per-set external-cache profiles and the structured event stream
	// during Run. Observation is passive: an instrumented run produces a
	// Result byte-identical to a plain one. Nil costs the hot path
	// nothing beyond untaken branches on the miss paths.
	Obs *obs.Collector

	// Cancel, when non-nil, is polled at region boundaries during Run; a
	// non-nil return aborts the simulation with that error. The harness
	// wires a request's context.Context.Err here so a canceled or
	// timed-out job frees its worker at the next region boundary instead
	// of running to completion. Region boundaries are the natural
	// preemption points: all CPUs are synchronized there, so no partial
	// accounting escapes into a Result that is discarded anyway.
	Cancel func() error

	// Isolate enables color-partitioned isolation domains for
	// multiprocess runs: the frame allocator splits its color space into
	// per-domain exclusive subsets (one domain per process unless
	// ProcessOptions.Domain groups them) and every allocation — policy
	// preference, CDPC hint, pressure fallback — is clamped to the
	// owner's partition. Cross-domain conflict misses become impossible
	// by construction (audit invariant 12 proves it on every run).
	// Ignored on the single-process path; unpartitioned runs are
	// byte-identical with this off.
	Isolate bool
}

// llcUnit is one last-level-cache instance: its hash-selected slice
// caches, the shadow cache classifying its replacement misses, and the
// CPUs sharing it. The coherence directory tracks units — the agents
// that actually hold physically tagged state — so on the default
// topology (one private external cache per CPU) unit ids coincide with
// CPU ids and the pre-topology behavior is reproduced exactly.
type llcUnit struct {
	id     int
	slices []*cache.Cache
	shadow *cache.Shadow
	cpus   []int
	hash   *arch.SliceHash
}

// cacheFor returns the slice cache serving a physical address.
func (u *llcUnit) cacheFor(paddr uint64) *cache.Cache {
	if u.hash == nil {
		return u.slices[0]
	}
	return u.slices[u.hash.SliceOf(paddr)]
}

// Machine is a configured simulator instance.
type Machine struct {
	cfg   arch.Config
	as    *vm.AddressSpace
	bus   *bus.Bus
	dir   *coherence.Directory
	alloc *memory.Allocator
	cpus  []*cpuState

	// Resolved cache topology (cfg.Topo()): the last level's geometry
	// and latency drive the miss path, the inner levels are latency
	// filters, and llcLine caches the LLC line size for the hot path's
	// line-address masking and bus transfer sizing.
	topo      arch.Topology
	llcLevel  arch.Level
	llcLine   int
	llcUnits  []*llcUnit
	midLevels []arch.Level

	// sliceMiss counts demand+instruction LLC misses per slice; nil
	// unless the LLC is sliced. Incremented wherever L2Misses is.
	sliceMiss []uint64

	// pageShift/pageMask are the division-free page-number split;
	// arch.Validate guarantees the page size is a power of two.
	pageShift uint
	pageMask  uint64
	// colors caches cfg.Colors() for frame→color attribution.
	colors int

	// obs is the optional observability collector (Options.Obs).
	obs *obs.Collector

	// recolorer is non-nil when dynamic recoloring is enabled.
	recolorer *recolorAdapter

	opts Options

	// crossCheck enables cross-domain victim attribution on the conflict
	// miss path. Set only for multiprocess or isolated runs so the
	// single-process hot path pays nothing.
	crossCheck bool

	// regions counts parallel regions executed, seeding the per-region
	// dispatch-order variation.
	regions uint64

	// warmRefs counts functional references executed by the sampling
	// path (fault pre-touch pages plus warm-up window references).
	warmRefs uint64

	// streams, runners and tree are the parallel event loop's reusable
	// per-region stream buffer, cursor buffer and scheduling tree.
	streams []trace.Stream
	runners []runner
	tree    winnerTree

	// shootdowns counts recoloring shootdowns, the only events that
	// advance CPUs other than the one stepping; the event loop rebuilds
	// its tree when a step changes it.
	shootdowns uint64
}

// transCache is a one-entry VPN→physical-page-base cache for
// instruction fetches, which the model sends through no TLB. Recoloring
// and a time-slice switch invalidate it, so while valid it skips the
// page-table lookup that would otherwise be paid on every I-cache miss.
type transCache struct {
	vpn   uint64
	pbase uint64
	valid bool
}

// cpuState is one processor's private state.
type cpuState struct {
	id    int
	clock uint64

	// as/pid identify the process currently scheduled on this CPU. A
	// single-process machine points every CPU at m.as (pid 0) forever;
	// the space-sharing scheduler re-points them at dispatch time.
	as  *vm.AddressSpace
	pid int

	l1d *cache.Cache
	l1i *cache.Cache
	tlb *tlb.TLB // data translations, each holding its page's current frame base

	// fetched is set by the CPU's first instruction fetch. Until then
	// the L1I is empty, and inclusion and coherence skip walking it.
	fetched bool

	// llc is the CPU's last-level-cache unit (possibly shared with
	// other CPUs); mids are its intermediate physically indexed levels,
	// inner to outer, one cache instance per level (also possibly
	// shared). The default topology has no mids and a private
	// one-slice unit per CPU.
	llc  *llcUnit
	mids []*cache.Cache

	// tcInst translates instruction fetches, which bypass the TLB.
	tcInst transCache

	// Prefetch engine: completion times of in-flight prefetches and the
	// arrival time of each prefetched line not yet demanded.
	outstanding []uint64
	pending     map[uint64]uint64 // L2 line address -> arrival time

	// writeBuffer holds the bus-completion times of in-flight
	// write-backs; a full buffer stalls the CPU until the oldest drains.
	writeBuffer []uint64

	// out is the outcome of the reference being processed.
	out outcome

	stats CPUStats
}

// New builds a machine for the given options.
func New(opts Options) (*Machine, error) {
	cfg := opts.Config
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := cfg.Topo()
	llcLevel := topo.LLC()
	units := cfg.NumCPUs / llcLevel.CPUsPerCache
	frames := cfg.MemoryMB << 20 / cfg.PageSize
	// A hashed LLC redefines frame→color; the allocator's pools must be
	// built by the same function the cache indexes by. The nil function
	// keeps the modular default (and its exact pool layout).
	var colorOf func(uint64) int
	if llcLevel.Hash != nil {
		colorOf = func(f uint64) int { return llcLevel.FrameColor(f, cfg.PageSize) }
	}
	alloc := memory.NewWithColorOf(frames, cfg.Colors(), colorOf)
	policy := opts.Policy
	if policy == nil {
		policy = vm.PageColoring{Colors: cfg.Colors()}
	}
	bindPolicy(policy, alloc, 0)
	m := &Machine{
		cfg:       cfg,
		as:        vm.NewAddressSpace(cfg.PageSize, alloc, policy),
		bus:       bus.New(cfg.BusBytesPerCycle, cfg.BusOverhead),
		dir:       coherence.New(units, llcLevel.Geom.LineSize),
		alloc:     alloc,
		opts:      opts,
		pageShift: arch.Log2(cfg.PageSize),
		pageMask:  uint64(cfg.PageSize - 1),
		colors:    cfg.Colors(),
		obs:       opts.Obs,
		topo:      topo,
		llcLevel:  llcLevel,
		llcLine:   llcLevel.Geom.LineSize,
		midLevels: topo.Levels[:len(topo.Levels)-1],
	}
	if llcLevel.Slices > 1 {
		m.sliceMiss = make([]uint64, llcLevel.Slices)
	}
	for u := 0; u < units; u++ {
		unit := &llcUnit{id: u, hash: llcLevel.Hash}
		for s := 0; s < llcLevel.Slices; s++ {
			unit.slices = append(unit.slices, cache.New(llcLevel.Geom))
		}
		// Physical addresses lie below the machine's frames, so the
		// shadow takes its narrow form wherever the LLC holds at most
		// flat.MaxNarrowLRU lines.
		unit.shadow = cache.NewShadowFor(llcLevel.Slices*llcLevel.Geom.Lines(), llcLevel.Geom.LineSize, uint64(frames*cfg.PageSize-1))
		for p := u * llcLevel.CPUsPerCache; p < (u+1)*llcLevel.CPUsPerCache; p++ {
			unit.cpus = append(unit.cpus, p)
		}
		m.llcUnits = append(m.llcUnits, unit)
	}
	// Intermediate-level cache instances, shared by sharing-cluster.
	midCaches := make([][]*cache.Cache, len(m.midLevels))
	for li, lvl := range m.midLevels {
		n := cfg.NumCPUs / lvl.CPUsPerCache
		midCaches[li] = make([]*cache.Cache, n)
		for i := range midCaches[li] {
			midCaches[li][i] = cache.New(lvl.Geom)
		}
	}
	if opts.Recolor != nil {
		m.recolorer = newRecolorAdapter(m.as, cfg.NumCPUs, *opts.Recolor, cfg.PageSize)
	}
	for _, color := range opts.ExhaustColors {
		for alloc.FreeOfColor(color) > 0 {
			if _, _, err := alloc.Alloc(color); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < cfg.NumCPUs; i++ {
		c := &cpuState{
			id:      i,
			as:      m.as,
			l1d:     cache.New(cfg.L1D),
			l1i:     cache.New(cfg.L1I),
			tlb:     tlb.New(cfg.TLBEntries),
			llc:     m.llcUnits[i/llcLevel.CPUsPerCache],
			pending: make(map[uint64]uint64),
		}
		for li, lvl := range m.midLevels {
			c.mids = append(c.mids, midCaches[li][i/lvl.CPUsPerCache])
		}
		m.cpus = append(m.cpus, c)
	}
	if m.obs != nil {
		m.obs.Init(m.colors, llcLevel.Slices*llcLevel.Geom.Sets(), cfg.PageSize/llcLevel.Geom.LineSize)
		if llcLevel.Slices > 1 {
			m.obs.InitSlices(llcLevel.Slices, llcLevel.Geom.Sets())
		}
		m.enableSetProfiles()
		m.as.OnFault = m.obsFaultHook()
	}
	return m, nil
}

// enableSetProfiles (re)arms per-set profiling on every LLC slice cache.
func (m *Machine) enableSetProfiles() {
	for _, u := range m.llcUnits {
		for _, sc := range u.slices {
			sc.EnableSetProfile()
		}
	}
}

// bindPolicy resolves allocator-dependent policies: a first-touch
// policy is constructed by the harness before the machine (and so
// before any allocator) exists, and is pointed at the machine's shared
// frame allocator and the owning process here (the pid scopes its
// free-list prediction to the process's color partition under
// isolation domains).
func bindPolicy(p vm.Policy, alloc *memory.Allocator, pid int) {
	if ft, ok := p.(*vm.FirstTouch); ok && ft.Alloc == nil {
		ft.Alloc = alloc
		ft.Pid = pid
	}
}

// obsFaultHook builds the address-space fault callback feeding the
// observability collector; every process's address space installs the
// same hook, distinguished by the pid the callback carries.
func (m *Machine) obsFaultHook() func(pid int, vpn uint64, cpu, color int, hinted, honored bool) {
	return func(pid int, vpn uint64, cpu, color int, hinted, honored bool) {
		var cycle uint64
		if cpu >= 0 && cpu < len(m.cpus) {
			cycle = m.cpus[cpu].clock
		}
		m.obs.RecordFaultPID(pid, cpu, cycle, vpn, color, hinted, honored)
	}
}

// frameColor returns the page color of paddr's frame: frame number mod
// color count on the default (unsliced) topology — the allocator's
// layout of contiguous physical memory — or the hash-aware slice-major
// color on a sliced LLC. The allocator holds the authoritative function.
func (m *Machine) frameColor(paddr uint64) int {
	return m.alloc.ColorOf(paddr >> m.pageShift)
}

// llcLineAddr rounds a physical address down to its LLC line boundary.
func (m *Machine) llcLineAddr(paddr uint64) uint64 {
	return paddr &^ uint64(m.llcLine-1)
}

// crossDomainVictim reports whether evicting the line at victim (a
// physical address) on behalf of pid crossed an isolation boundary. In
// partitioned mode the test is by color ownership — the victim frame's
// color belongs to another domain's exclusive subset — which is immune
// to frame-ownership staleness and provably never true (disjoint color
// subsets map to disjoint external-cache sets). Unpartitioned, each
// process is its own implicit domain and the test is by the victim
// frame's current owner: the PR 5 collision pathology made measurable.
func (m *Machine) crossDomainVictim(pid int, victim uint64) bool {
	if m.alloc.Partitioned() {
		return m.alloc.ColorDomain(m.frameColor(victim)) != m.alloc.DomainOf(pid)
	}
	owner, ok := m.alloc.OwnerOf(victim >> m.pageShift)
	return ok && owner != pid
}

// Run executes prog's steady state on the machine's own address space
// and returns the weighted result: the paper's methodology (warm-up
// discard, phase-occurrence weighting). RunSampled is the phase-sampled
// alternative.
func (m *Machine) Run(prog *ir.Program) (*Result, error) {
	return m.RunSource(ProgramSource(prog))
}

// finalizeObs snapshots the per-set external-cache profile (summed over
// CPUs, occupancy averaged) and the VM/allocator color state into the
// collector at the end of a run.
func (m *Machine) finalizeObs() {
	m.recordSetProfiles()
	m.obs.RecordAllocation(m.as.ColorOccupancy(), m.alloc.FreeByColor(),
		m.as.Faults, m.as.HintedFaults, m.as.HonoredHints)
}

// recordSetProfiles aggregates the per-set LLC counters over cache
// units into the collector. Sets are numbered slice-major — slice s's
// sets occupy [s*sliceSets, (s+1)*sliceSets) — matching the slice-major
// color numbering, so the collector's color×set Heat reshape works
// unchanged on sliced topologies.
func (m *Machine) recordSetProfiles() {
	sliceSets := m.llcLevel.Geom.Sets()
	sets := m.llcLevel.Slices * sliceSets
	miss := make([]uint64, sets)
	evict := make([]uint64, sets)
	inval := make([]uint64, sets)
	occ := make([]float64, sets)
	for _, u := range m.llcUnits {
		for s, sc := range u.slices {
			base := s * sliceSets
			p := sc.Profile()
			for i := 0; i < sliceSets; i++ {
				miss[base+i] += p.Misses[i]
				evict[base+i] += p.Evictions[i]
				inval[base+i] += p.Invalidations[i]
			}
			for i, o := range sc.SetOccupancy() {
				occ[base+i] += o
			}
		}
	}
	for i := range occ {
		occ[i] /= float64(len(m.llcUnits))
	}
	m.obs.RecordSetProfile(miss, evict, inval, occ)
}

// wallClock returns the current global time (all CPUs are synchronized
// at region boundaries, so any CPU's clock works; use the max
// defensively).
func (m *Machine) wallClock() uint64 { return clockMax(m.cpus) }

// pollCancel runs the Options.Cancel hook, wrapping its error. Every
// region-boundary-granularity loop — region dispatch on every path,
// sampled windows, and the sampled mode's page pre-touch and
// functional warm-up — must reach it, so a canceled server job stops
// within one region (or one warm-up nest) of the cancellation; cdpcd's
// drain deadline is sized to that bound.
func (m *Machine) pollCancel() error {
	if m.opts.Cancel != nil {
		if err := m.opts.Cancel(); err != nil {
			return fmt.Errorf("sim: run canceled: %w", err)
		}
	}
	return nil
}

// runRegionStreams is the engine's region primitive: every reference
// stream reaches the engine through it, from a Source's Regions
// (runRegion) or from the sampled path's windows. It runs one region to
// the barrier at its end on the given CPU gang — the whole machine for
// single-process and time-sliced runs, one partition for
// space-partitioned runs. Stream decomposition and fork-skew hashing
// use gang-local CPU indices, so a process behaves identically at a
// given width wherever its partition sits; regions is the owning
// process's parallel-region counter, seeding the per-region dispatch
// skew. Only the parallel/suppressed structure of the region is needed
// — everything else comes from the streams — and the semantics
// (catch-up, fork + dispatch skew, the min-clock interleave, the closing
// barrier) do not depend on where the streams came from, which is what
// lets a sampled window's per-CPU stat delta equal its wall delta (the
// property Result.Scale needs).
func (m *Machine) runRegionStreams(cpus []*cpuState, parallel, suppressed bool, regions *uint64, mk func(p, cpu int) trace.Stream) error {
	if err := m.pollCancel(); err != nil {
		return err
	}
	p := len(cpus)
	start := clockMax(cpus)
	// Bring lagging CPUs up to the region start; they were idle waiting
	// for the master (e.g. after serialized touch-order faulting).
	for _, c := range cpus {
		if c.clock < start {
			c.stats.SequentialCycles += start - c.clock
			c.clock = start
		}
	}

	if !parallel || suppressed || p == 1 {
		// Master executes alone; slaves spin.
		master := cpus[0]
		if err := m.runStream(master, mk(p, 0)); err != nil {
			return err
		}
		end := master.clock
		for _, c := range cpus[1:] {
			// Idle from the slave's own clock, not the region start: a
			// recoloring shootdown interrupt delivered mid-nest already
			// advanced the slave's clock and kernel time, converting that
			// much idle spin into kernel work rather than extending it
			// (the audit's cycle-conservation invariant caught the
			// end-start version double-booking shootdown cycles).
			if end > c.clock {
				idle := end - c.clock
				switch {
				case suppressed:
					c.stats.SuppressedCycles += idle
				default:
					c.stats.SequentialCycles += idle
				}
				c.clock = end
			}
		}
		return nil
	}

	// Parallel region: master forks, everyone runs its partition, then a
	// barrier synchronizes.
	fork := uint64(m.cfg.ForkCycles)
	skew := uint64(m.cfg.ForkSkewCycles)
	*regions++
	if cap(m.streams) < p {
		m.streams = make([]trace.Stream, p)
	}
	streams := m.streams[:p]
	for cpu := 0; cpu < p; cpu++ {
		// The master releases slaves one at a time and in no fixed order
		// (spin-wait wakeups race): CPU i starts a pseudo-random fraction
		// of the dispatch window later, varying per region. Identical
		// per-CPU cache layouts (CDPC) would otherwise keep every CPU's
		// hit-run/miss-burst phases aligned region after region, driving
		// worst-case bus convoys no real machine sustains.
		lag := fork
		if skew > 0 && p > 1 {
			h := (uint64(cpu)+1)*0x9e3779b97f4a7c15 ^ *regions*0xbf58476d1ce4e5b9
			h ^= h >> 29
			lag += (h * 0x94d049bb133111eb >> 40) % (uint64(p) * skew)
		}
		cpus[cpu].clock = start + lag
		cpus[cpu].stats.SyncCycles += lag
		streams[cpu] = mk(p, cpu)
	}
	if err := m.runParallel(cpus, streams); err != nil {
		return err
	}

	// Barrier: everyone waits for the slowest, then pays the software
	// barrier cost.
	maxT := clockMax(cpus)
	for _, c := range cpus {
		c.stats.ImbalanceCycles += maxT - c.clock
		c.stats.SyncCycles += uint64(m.cfg.BarrierCycles)
		c.clock = maxT + uint64(m.cfg.BarrierCycles)
	}
	return nil
}

// clockMax returns the latest clock among the given CPUs.
func clockMax(cpus []*cpuState) uint64 {
	var w uint64
	for _, c := range cpus {
		if c.clock > w {
			w = c.clock
		}
	}
	return w
}

// cancelPollRefs is the in-region cancellation granularity: the
// interleave loops poll Options.Cancel every this many references.
// Nest-shaped sources already poll at every region boundary, but an
// external trace is one region — without the in-region poll, a long
// trace job would outlive the server's drain deadline. Power of two so
// the hot loops test with a mask.
const cancelPollRefs = 1 << 20

// runStream drains one CPU's stream (sequential regions).
func (m *Machine) runStream(c *cpuState, s trace.Stream) error {
	var r trace.Ref
	n := uint64(0)
	for s.Next(&r) {
		if err := m.step(c, &r); err != nil {
			return err
		}
		if n++; n&(cancelPollRefs-1) == 0 {
			if err := m.pollCancel(); err != nil {
				return err
			}
		}
	}
	return nil
}

// runner is one CPU's cursor in the parallel event loop; the trace.Ref
// inside is reused for every reference so the loop allocates nothing.
type runner struct {
	c *cpuState
	s trace.Stream
	r trace.Ref
}

// runParallel interleaves the per-CPU streams in global time order: the
// CPU with the smallest clock processes its next reference, the lowest
// CPU index winning ties. This is what makes bus contention and
// coherence interactions honest. A winner tree keyed by clock picks the
// CPU in log2(P) compares. A step moves only its own CPU's clock, except
// for a recoloring shootdown, after which every key is reloaded. The
// winner runs ahead without touching the tree while its packed key
// stays below the runner-up's: packed keys are unique, so the tree
// would pick it again. Its leaf is replayed once, when the run ends.
func (m *Machine) runParallel(cpus []*cpuState, streams []trace.Stream) error {
	if cap(m.runners) < len(streams) {
		m.runners = make([]runner, len(streams))
	}
	runners := m.runners[:len(streams)]
	t := &m.tree
	t.reset(len(runners))
	for i := range streams {
		runners[i] = runner{c: cpus[i], s: streams[i]}
		if runners[i].s.Next(&runners[i].r) {
			key, err := t.key(i, cpus[i].clock)
			if err != nil {
				return err
			}
			t.set(i, key)
		}
	}
	t.rebuild()
	steps := uint64(0)
	for {
		best, live := t.min()
		if !live {
			return nil
		}
		ru := &runners[best]
		next := t.runnerUp(best)
		for {
			shootdowns := m.shootdowns
			if err := m.step(ru.c, &ru.r); err != nil {
				return err
			}
			key := doneKey
			if ru.s.Next(&ru.r) {
				var err error
				if key, err = t.key(best, ru.c.clock); err != nil {
					return err
				}
			}
			if steps++; steps&(cancelPollRefs-1) == 0 {
				if err := m.pollCancel(); err != nil {
					return err
				}
			}
			if m.shootdowns != shootdowns {
				if err := m.reloadKeys(runners, best, key); err != nil {
					return err
				}
				break
			}
			if key >= next {
				t.update(best, key)
				break
			}
		}
	}
}

// reloadKeys rebuilds the event loop's tree after a shootdown advanced
// other CPUs' clocks: leaf best takes key, every other live leaf its
// runner's current clock.
func (m *Machine) reloadKeys(runners []runner, best int, key uint64) error {
	t := &m.tree
	t.set(best, key)
	for i := range runners {
		if i == best || t.leaf(i) == doneKey {
			continue
		}
		k, err := t.key(i, runners[i].c.clock)
		if err != nil {
			return err
		}
		t.set(i, k)
	}
	t.rebuild()
	return nil
}
