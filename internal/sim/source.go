package sim

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/ir"
	"repro/internal/trace"
)

// Source is the engine's workload abstraction: the only way a
// reference stream reaches the engine, so streams need not come from
// an ir.Program. A source
// describes its execution structure (unmeasured initialization
// regions, then steady-state phases weighted by occurrence counts) and
// supplies the per-CPU reference stream of each region on demand. Page
// placement is not the source's: it rides in the ProcessOptions that
// carries the source.
//
// The engine may ask for a region's streams more than once — the
// warm-up pass re-runs every phase — so WarmupPass must be false for
// sources that cannot replay cheaply or whose methodology measures
// the whole stream (external traces: a finite recorded stream run
// twice would double-count its cold faults into the warm-up).
type Source interface {
	// Name labels the workload in results.
	Name() string
	// Validate checks the source against the machine shape before any
	// simulation state is touched.
	Validate(numCPUs int) error
	// InitRegions returns the unmeasured initialization regions, run
	// once before the warm-up pass (where first-touch faulting happens
	// for sources with an init phase).
	InitRegions() []Region
	// Phases returns the steady-state phases in execution order.
	Phases() []SourcePhase
	// WarmupPass reports whether the engine should run every phase once
	// unmeasured first (the paper's §3.2 warm-up discard).
	WarmupPass() bool
}

// SourcePhase is one steady-state phase: its regions run in order,
// and the measured pass weights the phase's statistics by Occurrences.
type SourcePhase struct {
	Name        string
	Occurrences int
	Regions     []Region
}

// Region is one barrier-delimited execution region: the unit of
// fork/dispatch, min-clock interleaving and the closing barrier. The
// engine calls Stream once per participating CPU per execution; p is
// the gang width and cpu the gang-local CPU index.
type Region interface {
	// Parallel reports whether the region forks across the gang;
	// sequential regions run on the master while slaves idle.
	Parallel() bool
	// Suppressed marks a parallel region executed sequentially
	// (suppressed parallelization); slave idle time is booked as
	// SuppressedCycles rather than SequentialCycles.
	Suppressed() bool
	// Stream returns CPU cpu's reference stream for one execution of
	// the region.
	Stream(p, cpu int) trace.Stream
}

// ProgramSource adapts an ir.Program to the Source interface: its init
// nests become the init regions and each steady-state phase's nests
// that phase's regions, one region per nest.
func ProgramSource(prog *ir.Program) Source { return &programSource{prog: prog} }

type programSource struct {
	prog *ir.Program
}

func (p *programSource) Name() string               { return p.prog.Name }
func (p *programSource) Validate(numCPUs int) error { return p.prog.Validate() }
func (p *programSource) WarmupPass() bool           { return true }

func (p *programSource) InitRegions() []Region {
	if p.prog.Init == nil {
		return nil
	}
	return p.regions(p.prog.Init.Nests)
}

func (p *programSource) Phases() []SourcePhase {
	phases := make([]SourcePhase, len(p.prog.Phases))
	for i, ph := range p.prog.Phases {
		phases[i] = SourcePhase{Name: ph.Name, Occurrences: ph.Occurrences, Regions: p.regions(ph.Nests)}
	}
	return phases
}

func (p *programSource) regions(nests []*ir.Nest) []Region {
	regions := make([]Region, len(nests))
	for i, n := range nests {
		regions[i] = nestRegion{prog: p.prog, n: n}
	}
	return regions
}

// nestRegion is one loop nest as a Region; its streams are the
// ir.NestStream decomposition of the nest across the gang.
type nestRegion struct {
	prog *ir.Program
	n    *ir.Nest
}

func (r nestRegion) Parallel() bool   { return r.n.Parallel }
func (r nestRegion) Suppressed() bool { return r.n.Suppressed }
func (r nestRegion) Stream(p, cpu int) trace.Stream {
	return ir.NestStream(r.prog, r.n, p, cpu)
}

// NewTraceSource wraps a decoded binary trace as a Source: one
// steady-state phase holding one parallel region whose per-CPU streams
// decode lazily from the trace's compressed blocks (the run never
// materializes the reference slice). There is no init region and no
// warm-up pass — a recorded stream is finite and is measured whole,
// cold faults included, like the multiprocess paths. CDPC hints for a
// trace (trace.PreferredColors' output) ride in ProcessOptions.Hints.
func NewTraceSource(name string, f *trace.File) Source {
	return &traceSource{name: name, f: f}
}

type traceSource struct {
	name string
	f    *trace.File
}

func (t *traceSource) Name() string          { return t.name }
func (t *traceSource) InitRegions() []Region { return nil }
func (t *traceSource) WarmupPass() bool      { return false }

func (t *traceSource) Validate(numCPUs int) error {
	if n := t.f.NumCPUs(); n > numCPUs {
		return fmt.Errorf("sim: trace %q carries %d CPU streams but the machine has %d CPUs", t.name, n, numCPUs)
	}
	return nil
}

func (t *traceSource) Phases() []SourcePhase {
	return []SourcePhase{{Name: "trace", Occurrences: 1, Regions: []Region{traceRegion{f: t.f}}}}
}

// traceRegion replays the whole trace as a single parallel region: CPU
// i of the gang drains trace stream i; machine CPUs beyond the trace's
// width idle (trace.File.Stream hands them the empty stream).
type traceRegion struct {
	f *trace.File
}

func (r traceRegion) Parallel() bool                 { return true }
func (r traceRegion) Suppressed() bool               { return false }
func (r traceRegion) Stream(p, cpu int) trace.Stream { return r.f.Stream(cpu) }

// Run executes po's process alone on the machine at full fidelity and
// returns the weighted result: the paper's methodology (warm-up
// discard, phase-occurrence weighting). RunSampled is the phase-sampled
// alternative for a program. Cancellation is polled at every region
// boundary and, for sources whose regions are long (a whole external
// trace is one region), every 2^20 references inside the interleave
// loops, so the server's drain bound holds for trace jobs too.
func (m *Machine) Run(po ProcessOptions) (*Result, error) {
	p, err := m.solo(po)
	if err != nil {
		return nil, err
	}
	phases, err := m.warmStart(p, po)
	if err != nil {
		return nil, err
	}

	// Attribution covers the measured region only, mirroring the Result:
	// drop per-color/per-page counts and set profiles from init and
	// warm-up. (Phases with Occurrences > 1 are still attributed once,
	// unweighted, where the Result multiplies them out.)
	if m.obs != nil {
		m.obs.ResetAttribution()
		m.enableSetProfiles()
	}

	res := &Result{PerCPU: make([]CPUStats, len(m.cpus))}
	// Per-slice miss split, phase-weighted like everything else so audit
	// invariant 13 (sum == total L2 misses) holds exactly.
	if m.sliceMiss != nil {
		res.SliceMisses = make([]uint64, len(m.sliceMiss))
	}
	for _, ph := range phases {
		d, err := m.measure(func() error { return m.runRegions(p, ph.Regions) })
		if err != nil {
			return nil, err
		}
		res.accumulate(d, uint64(ph.Occurrences))
	}
	res = m.processResult(p, FidelityFull, res)
	if m.obs != nil {
		m.finalizeObs()
	}
	return res, nil
}

// solo validates po's source against the whole machine and builds its
// process, pid 0, on every CPU: the process table of a single-process
// run.
func (m *Machine) solo(po ProcessOptions) (*Process, error) {
	if po.Source == nil {
		return nil, fmt.Errorf("sim: nil source")
	}
	if err := po.Source.Validate(m.cfg.NumCPUs); err != nil {
		return nil, err
	}
	p := m.newProcess(0, po, 0, nil)
	p.cpus = m.cpus
	for _, c := range m.cpus {
		c.as = p.as
	}
	m.procs = []*Process{p}
	return p, nil
}

// prologue is the unmeasured start every solo pass shares: fault the
// touch order serially on the master, run the pass's own warm-up, then
// synchronize clocks so measurement starts from a common origin.
func (m *Machine) prologue(touchOrder []uint64, warm func() error) error {
	if touchOrder != nil {
		faults, err := m.cpus[0].as.TouchInOrder(touchOrder, 0)
		if err != nil {
			return fmt.Errorf("sim: touch-order faulting: %w", err)
		}
		// All faults are serialized on the master at startup — the §5.3
		// drawback of the user-level Digital UNIX implementation.
		m.cpus[0].stats.KernelCycles += uint64(faults) * uint64(m.cfg.PageFaultCycles)
		m.cpus[0].stats.PageFaults += uint64(faults)
		m.cpus[0].clock += uint64(faults) * uint64(m.cfg.PageFaultCycles)
	}
	if err := warm(); err != nil {
		return err
	}
	// A CPU can lag the global clock here only when startup work was
	// serialized on the master and no init or warm-up pass absorbed the
	// skew (touch-order faulting with SkipWarmup); the lag is slave idle
	// time, booked as such so every measured phase starts from a common
	// origin — the audit's cycle-conservation invariant depends on it.
	sync := m.wallClock()
	for _, c := range m.cpus {
		if c.clock < sync {
			c.stats.SequentialCycles += sync - c.clock
			c.clock = sync
		}
	}
	return nil
}

// warmStart runs solo process p through the prologue with the full
// engine's warm-up: the unmeasured init regions (where first-touch page
// faults happen for sources with an init phase), then every phase once
// with its stats discarded — the paper's "discard the results from the
// first phases executed with the detailed simulator" (§3.2). Sources
// that measure their whole stream (external traces) and SkipWarmup opt
// out of the second part. It returns the phases to measure.
func (m *Machine) warmStart(p *Process, po ProcessOptions) ([]SourcePhase, error) {
	src := po.Source
	phases := src.Phases()
	err := m.prologue(po.TouchOrder, func() error {
		if err := m.runRegions(p, src.InitRegions()); err != nil {
			return err
		}
		if !src.WarmupPass() || m.opts.SkipWarmup {
			return nil
		}
		for _, ph := range phases {
			if err := m.runRegions(p, ph.Regions); err != nil {
				return err
			}
		}
		return nil
	})
	return phases, err
}

// measure runs one measured stretch of whole barrier-to-barrier regions
// and returns the machine's counter delta across it: per-CPU stats, bus
// occupancy, wall time and per-slice LLC misses. A delta satisfies the
// audit invariants on its own, which is what lets callers weight
// (Run), extrapolate (RunSampled) or sum (SamplePhases) it.
func (m *Machine) measure(run func() error) (*Result, error) {
	d := &Result{PerCPU: make([]CPUStats, len(m.cpus))}
	for i, c := range m.cpus {
		d.PerCPU[i] = c.stats
	}
	bus0 := m.busOccupancy()
	wall0 := m.wallClock()
	slice0 := append([]uint64(nil), m.sliceMiss...)
	if err := run(); err != nil {
		return nil, err
	}
	for i, c := range m.cpus {
		d.PerCPU[i] = c.stats.sub(d.PerCPU[i])
	}
	bus1 := m.busOccupancy()
	d.Bus = BusStats{
		DataCycles:      bus1[0] - bus0[0],
		WritebackCycles: bus1[1] - bus0[1],
		UpgradeCycles:   bus1[2] - bus0[2],
	}
	d.WallCycles = m.wallClock() - wall0
	if m.sliceMiss != nil {
		d.SliceMisses = slice0
		for s := range slice0 {
			d.SliceMisses[s] = m.sliceMiss[s] - slice0[s]
		}
	}
	return d, nil
}

// busOccupancy returns the bus's cumulative data, write-back and
// upgrade occupancy.
func (m *Machine) busOccupancy() [3]uint64 {
	return [3]uint64{m.bus.Occupancy(bus.Data), m.bus.Occupancy(bus.Writeback), m.bus.Occupancy(bus.Upgrade)}
}

// accumulate adds a measured delta into r with every term weighted by
// w. The per-slice split is kept only when r carries one (the sampled
// path's results never do; see Scale).
func (r *Result) accumulate(d *Result, w uint64) {
	for i := range d.PerCPU {
		r.PerCPU[i].add(&d.PerCPU[i], w)
	}
	r.Bus.DataCycles += d.Bus.DataCycles * w
	r.Bus.WritebackCycles += d.Bus.WritebackCycles * w
	r.Bus.UpgradeCycles += d.Bus.UpgradeCycles * w
	r.WallCycles += d.WallCycles * w
	for s := range r.SliceMisses {
		r.SliceMisses[s] += d.SliceMisses[s] * w
	}
}

// runRegions runs regions in order on process p's CPU gang.
func (m *Machine) runRegions(p *Process, regions []Region) error {
	for _, reg := range regions {
		if err := m.runRegion(p.cpus, reg, &p.regions); err != nil {
			return err
		}
	}
	return nil
}

// runRegion executes one source region to the barrier at its end on the
// given CPU gang; regions is the owning process's parallel-region
// counter (see runRegionStreams).
func (m *Machine) runRegion(cpus []*cpuState, reg Region, regions *uint64) error {
	return m.runRegionStreams(cpus, reg.Parallel(), reg.Suppressed(), regions, reg.Stream)
}
