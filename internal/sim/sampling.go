package sim

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/trace"
)

// Phase-sampled simulation: instead of detail-simulating every outer
// iteration of every nest, the machine simulates one representative
// window per nest (per phase cluster) and extrapolates the window's
// statistics to the full span. Three mechanisms make the extrapolation
// honest:
//
//   - a page-granularity fault pre-touch replays the program's
//     first-touch pattern before any window runs, so the address space
//     ends up with the same page-to-frame (and therefore page-to-color)
//     assignment the full run produces, and the Result's fault counts
//     match;
//   - a functional warm-up window immediately before each measured
//     window reconstructs the cache, TLB and coherence state the skipped
//     iterations would have left behind, without booking any cycles;
//   - Result.Scale extrapolates each window's delta by span/window in a
//     derivation order that preserves every Audit invariant.
//
// Windows are placed per CPU inside that CPU's own span, so a window
// touches the same columns — and the same page colors — the full run
// would. Nests whose spans are too short to carve a window out of run
// at full detail (scale 1/1); the speedup comes from the long nests,
// which are also where the simulation time goes.

// Sampling window sizes, in outer iterations per CPU span.
const (
	// windowIters is the measured window.
	windowIters = 10
	// warmIters is the minimum functional warm-up preceding each
	// measured window.
	warmIters = 4
	// minSpanIters is the shortest span worth sampling; shorter spans
	// run at full detail. Must exceed the window plus the warm-up for
	// the split to mean anything.
	minSpanIters = 24
)

// PhaseCluster names one group of access-pattern-identical phases. Rep
// and Members index Program.Phases; the representative's nests are the
// ones simulated, and the extrapolated statistics are weighted by the
// summed occurrence counts of all members.
type PhaseCluster struct {
	Rep     int
	Members []int
}

// windowPlan is one nest's per-CPU sampling decision: the functional
// warm-up range [warmLo, warmHi), the measured range [measLo, measHi)
// and the functional tail range [tailLo, spanHi) for each CPU, plus
// the uniform extrapolation weight num/den (total span iterations over
// total measured iterations, summed across CPUs so every CPU's delta
// scales by the same rational and barrier synchronization survives
// scaling).
//
// The tail range reconstructs inter-nest state: the only execution
// state a nest passes to its successor is its span's cache-sized tail
// (everything earlier has been evicted by the time the nest ends), so
// functionally sweeping the tail after the measured window leaves the
// next nest exactly the residue the full engine would. Without it, a
// consumer nest sees its producer's mid-span window instead of the
// producer's tail — mgrid's relax/residual chain was the visible
// casualty.
type windowPlan struct {
	warmLo, warmHi, measLo, measHi, tailLo, spanHi []int
	num, den                                       uint64
}

// warmItersFor sizes a nest's functional warm-up window: at least
// warmIters, and long enough that the warm-up's line footprint cycles
// the external cache twice. A warm-up that only grazes the cache
// leaves most ways invalid, so the measured window's early misses
// evict nothing — no dirty victims, no write-back bus traffic, and bus
// queueing (a real component of every miss's stall) comes out
// systematically low. Cycling the cache before measurement
// reconstructs the full run's steady state: every set full, dirty in
// the sweep's proportions.
func (m *Machine) warmItersFor(n *ir.Nest) int {
	line := m.llcLine
	f := 0 // bytes of distinct cache lines touched per outer iteration
	type group struct {
		arr          *ir.Array
		inner, outer int
	}
	seen := make(map[group]bool, len(n.Accesses))
	for i := range n.Accesses {
		ac := &n.Accesses[i]
		// Stencil offsets (same array, same strides, shifted start) slide
		// across outer iterations: the lines access i+1 reads now were
		// read by access i one iteration ago, so the group's marginal
		// footprint is a single access's worth. Counting each offset
		// separately overestimates f and makes the warm-up window too
		// short to cycle the external cache — stale residue then survives
		// into later nests' measured regions as phantom hits.
		g := group{arr: ac.Array, inner: ac.InnerStride, outer: ac.OuterStride}
		if seen[g] {
			continue
		}
		seen[g] = true
		b := ac.InnerStride * ac.Array.ElemSize
		if b < 0 {
			b = -b
		}
		if b > line {
			b = line
		}
		f += n.InnerIters * b
	}
	if f <= 0 {
		return warmIters
	}
	if need := (2*m.llcLevel.Slices*m.llcLevel.Geom.Size + f - 1) / f; need > warmIters {
		return need
	}
	return warmIters
}

// tailItersFor sizes a nest's functional tail sweep: enough iterations
// to cycle the external cache once. One full pass both deposits the
// residue the next nest inherits and evicts whatever older state the
// skipped iterations would have pushed out; the double pass the
// pre-window warm-up needs (for steady-state dirty proportions) buys
// nothing extra here.
func (m *Machine) tailItersFor(n *ir.Nest) int {
	t := m.warmItersFor(n) / 2
	if t < warmIters {
		t = warmIters
	}
	return t
}

// planWindows chooses each CPU's measured window for one nest on p
// processors. ord is the nest's ordinal in the sampled run: window
// positions stagger across nests (1/4, 2/4, 3/4 of the room after the
// warm-up) so that consecutive nests' windows cover different rows.
// Aligned windows manufacture producer-consumer locality the full run
// does not have — nest k+1's window would re-read exactly the lines
// nest k's window just brought into the external cache, deflating its
// miss count — while in the full run a consumer sweeps rows the
// producer touched long enough ago to have been evicted.
//
// Spans shorter than minSpanIters — or too short to fit warm-up plus
// window — run at full detail with no self-warm and no tail: the
// measured sweep starts on whatever state the previous nest's tail
// left (exactly what the full engine's measured pass sees) and its own
// tail is part of the detailed sweep. Warming a fallback nest over its
// own span instead would let the measured sweep re-read lines the warm
// pass just cached — apsi's filter nest lost a third of its misses to
// exactly that artifact.
func (m *Machine) planWindows(n *ir.Nest, p, ord int) windowPlan {
	w := windowIters
	warm := m.warmItersFor(n)
	plan := windowPlan{
		warmLo: make([]int, p),
		warmHi: make([]int, p),
		measLo: make([]int, p),
		measHi: make([]int, p),
		tailLo: make([]int, p),
		spanHi: make([]int, p),
	}
	for cpu := 0; cpu < p; cpu++ {
		lo, hi := ir.NestSpan(n, p, cpu)
		span := hi - lo
		if span <= 0 {
			plan.warmLo[cpu], plan.warmHi[cpu] = lo, lo
			plan.measLo[cpu], plan.measHi[cpu] = lo, lo
			plan.tailLo[cpu], plan.spanHi[cpu] = lo, lo
			continue
		}
		if span < minSpanIters || span <= w+warm {
			// Full detail; the tail is inside the measured sweep.
			plan.warmLo[cpu], plan.warmHi[cpu] = lo, lo
			plan.measLo[cpu], plan.measHi[cpu] = lo, hi
			plan.tailLo[cpu], plan.spanHi[cpu] = hi, hi
			plan.num += uint64(span)
			plan.den += uint64(span)
			continue
		}
		measLo := lo + warm + (span-warm-w)*(1+ord%3)/4
		plan.warmLo[cpu], plan.warmHi[cpu] = measLo-warm, measLo
		plan.measLo[cpu], plan.measHi[cpu] = measLo, measLo+w
		tail := hi - m.tailItersFor(n)
		if tail < measLo+w {
			tail = measLo + w
		}
		plan.tailLo[cpu], plan.spanHi[cpu] = tail, hi
		plan.num += uint64(span)
		plan.den += uint64(w)
	}
	if plan.den == 0 {
		// Nest with no iterations anywhere: scale by 1/1 (no-op).
		plan.num, plan.den = 1, 1
	}
	return plan
}

// RunSampled is the phase-sampled counterpart of Run: it simulates one
// representative window per nest of each cluster's representative
// phase and extrapolates to the full run. Windows are cut from loop
// nests, so po's source must be a ProgramSource. clusters must
// partition the program's phases (the harness passes the compiler's
// access-pattern clustering). Dynamic recoloring reacts to per-page
// miss counts a window cannot reproduce, and the observability
// collector's event stream is defined over the full reference trace,
// so a process or machine with either is rejected rather than run at
// full fidelity.
func (m *Machine) RunSampled(po ProcessOptions, clusters []PhaseCluster) (*Result, error) {
	if po.Recolor != nil || m.obs != nil {
		return nil, fmt.Errorf("sim: sampled runs support neither dynamic recoloring nor an observability collector")
	}
	ps, ok := po.Source.(*programSource)
	if !ok {
		return nil, fmt.Errorf("sim: sampled runs need a ProgramSource, got %T", po.Source)
	}
	prog := ps.prog
	p, err := m.solo(po)
	if err != nil {
		return nil, err
	}
	if err := validateClusters(clusters, len(prog.Phases)); err != nil {
		return nil, err
	}

	m.warmRefs = 0
	err = m.prologue(po.TouchOrder, func() error {
		// Fault pre-touch: replay the program's first-touch pattern at
		// page granularity — init phase first (it takes the first-touch
		// faults in the full engine), then every steady-state phase, CPUs
		// interleaved per outer iteration to approximate the full run's
		// fault order under first-touch placement. After this pass the
		// measured windows fault nothing, exactly like the full engine's
		// measured pass over a warmed address space.
		if err := m.touchProgramPages(prog); err != nil {
			return err
		}
		// Emulate the full engine's warm-up discard pass at functional
		// fidelity: sweep every representative nest's cache-reaching
		// tail in program order. The discard pass's only lasting effect
		// is the cache, TLB and directory residue of each nest's final
		// iterations — everything earlier is evicted before the pass ends
		// — so the tails reproduce the state the measured pass starts
		// from. Without this, the first measured nest (and every
		// full-detail fallback nest) runs colder than the full engine's
		// measured pass.
		return m.prewarmClusters(prog, clusters, len(m.cpus))
	})
	if err != nil {
		return nil, err
	}

	res := &Result{PerCPU: make([]CPUStats, len(m.cpus))}
	width := len(m.cpus)
	for ci, cl := range clusters {
		var weight uint64
		for _, i := range cl.Members {
			weight += uint64(prog.Phases[i].Occurrences)
		}
		rep := prog.Phases[cl.Rep]
		for ni, n := range rep.Nests {
			plan := m.planWindows(n, width, ni)
			if err := m.warmRanges(prog, n, width, plan.warmLo, plan.warmHi); err != nil {
				return nil, err
			}

			d, err := m.measure(func() error {
				return m.runRegionStreams(m.cpus, n.Parallel, n.Suppressed, &p.regions, func(p, cpu int) trace.Stream {
					return ir.NestWindowStream(prog, n, p, cpu, plan.measLo[cpu], plan.measHi[cpu])
				})
			})
			if err != nil {
				return nil, err
			}
			// Extrapolate the window's delta to the nest's full span, then
			// accumulate with the cluster's phase weight. The delta
			// satisfies the audit invariants on its own (it is one
			// barrier-to-barrier region), Scale preserves them, and
			// accumulate multiplies every term uniformly.
			d.Scale(plan.num, plan.den)
			res.accumulate(d, weight)

			res.SampledWindows++
			res.SampledIters += plan.den
			res.RepresentedIters += plan.num * weight

			// Functionally sweep the span's tail so the next nest starts
			// from the residue this nest's final iterations would leave —
			// the only state the full engine carries across a nest
			// boundary. The very last nest has no consumer, so its tail
			// sweep is skipped.
			if ci < len(clusters)-1 || ni < len(rep.Nests)-1 {
				if err := m.warmRanges(prog, n, width, plan.tailLo, plan.spanHi); err != nil {
					return nil, err
				}
			}
		}
	}

	res.WarmupRefs = m.warmRefs
	return m.processResult(p, FidelitySampled, res), nil
}

// validateClusters checks that a caller-supplied clustering is a
// partition of [0, phases).
func validateClusters(clusters []PhaseCluster, phases int) error {
	seen := make([]bool, phases)
	for _, cl := range clusters {
		if cl.Rep < 0 || cl.Rep >= phases {
			return fmt.Errorf("sim: sampling cluster representative %d out of range [0,%d)", cl.Rep, phases)
		}
		for _, i := range cl.Members {
			if i < 0 || i >= phases {
				return fmt.Errorf("sim: sampling cluster member %d out of range [0,%d)", i, phases)
			}
			if seen[i] {
				return fmt.Errorf("sim: phase %d appears in two sampling clusters", i)
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("sim: phase %d missing from sampling clusters", i)
		}
	}
	return nil
}

// touchProgramPages faults every page the program touches, at page
// granularity, in approximate execution order.
func (m *Machine) touchProgramPages(prog *ir.Program) error {
	p := len(m.cpus)
	phases := prog.Phases
	if prog.Init != nil {
		phases = append([]*ir.Phase{prog.Init}, prog.Phases...)
	}
	code := false
	for _, ph := range phases {
		for _, n := range ph.Nests {
			if n.InstFootprint > 0 {
				code = true
			}
			if err := m.touchNestPages(n, p); err != nil {
				return err
			}
		}
	}
	// Code pages fault on the first instruction fetch in the full
	// engine, always on whichever CPU fetches first; attribute them to
	// CPU 0 (code is read-shared, so placement attribution is moot).
	if code && prog.CodeSize > 0 {
		for off := 0; off < prog.CodeSize; off += m.cfg.PageSize {
			if _, err := m.cpus[0].as.Touch((prog.CodeBase+uint64(off))>>m.pageShift, 0); err != nil {
				return fmt.Errorf("sim: sampling pre-touch (code): %w", err)
			}
			m.warmRefs++
		}
	}
	return nil
}

// touchNestPages walks one nest's data footprint page by page, CPUs
// interleaved per outer iteration so first-touch placement lands close
// to the full engine's min-clock interleave.
func (m *Machine) touchNestPages(n *ir.Nest, p int) error {
	// Pre-touch runs before any simulated nest, so this is the only
	// cancellation point a shutdown during warm-up can hit.
	if err := m.pollCancel(); err != nil {
		return err
	}
	spans := make([][2]int, p)
	maxSpan := 0
	for cpu := 0; cpu < p; cpu++ {
		lo, hi := ir.NestSpan(n, p, cpu)
		spans[cpu] = [2]int{lo, hi}
		if hi-lo > maxSpan {
			maxSpan = hi - lo
		}
	}
	for k := 0; k < maxSpan; k++ {
		for cpu := 0; cpu < p; cpu++ {
			i := spans[cpu][0] + k
			if i >= spans[cpu][1] {
				continue
			}
			for a := range n.Accesses {
				if err := m.touchAccessPages(&n.Accesses[a], i, n.InnerIters, cpu); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// touchAccessPages faults the pages access ac touches at outer
// iteration i, skipping inner iterations that stay on an already-seen
// page: from each touched address it jumps straight to the inner index
// that first crosses the next page boundary. For |stride| <= page size
// this enumerates exactly the pages the full run touches; a Wrap access
// can hide one boundary inside a jump at the wrap seam, which at worst
// defers that page's fault to the warm-up or measured window that
// touches it.
func (m *Machine) touchAccessPages(ac *ir.Access, i, inner, cpu int) error {
	stride := ac.InnerStride * ac.Array.ElemSize
	if stride < 0 {
		stride = -stride
	}
	for j := 0; j < inner; {
		va := ac.VAddr(i, j)
		if _, err := m.cpus[cpu].as.Touch(va>>m.pageShift, cpu); err != nil {
			return fmt.Errorf("sim: sampling pre-touch: %w", err)
		}
		m.warmRefs++
		if stride == 0 {
			break
		}
		step := int(uint64(m.cfg.PageSize)-(va&m.pageMask)+uint64(stride)-1) / stride
		if step < 1 {
			step = 1
		}
		j += step
	}
	return nil
}

// prewarmClusters reconstructs the state the full engine's warm-up
// discard pass leaves behind: the cache-reaching tail of the final
// nest it executes. Everything the discard pass did before that tail
// is evicted by the tail itself (the tail cycles the external cache),
// so sweeping just the last representative nest's final warmItersFor
// iterations hands the first measured nest the same starting state at
// a fraction of the cost.
func (m *Machine) prewarmClusters(prog *ir.Program, clusters []PhaseCluster, p int) error {
	var last *ir.Nest
	for _, cl := range clusters {
		if nests := prog.Phases[cl.Rep].Nests; len(nests) > 0 {
			last = nests[len(nests)-1]
		}
	}
	if last == nil {
		return nil
	}
	warm := m.warmItersFor(last)
	lo := make([]int, p)
	hi := make([]int, p)
	for cpu := 0; cpu < p; cpu++ {
		l, h := ir.NestSpan(last, p, cpu)
		if h-l > warm {
			l = h - warm
		}
		lo[cpu], hi[cpu] = l, h
	}
	return m.warmRanges(prog, last, p, lo, hi)
}

// warmRanges functionally executes each CPU's [lo, hi) outer-iteration
// range of one nest — caches, TLBs, the instruction translation caches,
// directory and prefetch-pending state update exactly as the detailed
// engine's would, but no cycles, stalls or event counters are booked and the
// bus is never touched. References interleave round-robin across CPUs,
// one reference each, standing in for the detailed engine's min-clock
// order.
func (m *Machine) warmRanges(prog *ir.Program, n *ir.Nest, p int, lo, hi []int) error {
	// One poll per warm sweep: a sweep covers at most warmItersFor
	// iterations of one nest, the same boundary granularity the
	// detailed engine polls at in runRegionStreams.
	if err := m.pollCancel(); err != nil {
		return err
	}
	streams := make([]trace.Stream, 0, p)
	cpus := make([]*cpuState, 0, p)
	for cpu := 0; cpu < p; cpu++ {
		if lo[cpu] >= hi[cpu] {
			continue
		}
		// Warm at L1-line granularity: every structure the warm-up
		// populates holds line- or page-granular state, so one reference
		// per L1 line rebuilds the same state as a per-element sweep.
		streams = append(streams, ir.NestWarmStream(prog, n, p, cpu, lo[cpu], hi[cpu], m.llcLine))
		cpus = append(cpus, m.cpus[cpu])
	}
	var r trace.Ref
	for len(streams) > 0 {
		live := 0
		for i := range streams {
			if !streams[i].Next(&r) {
				continue
			}
			if err := m.warmRef(cpus[i], &r); err != nil {
				return err
			}
			streams[live], cpus[live] = streams[i], cpus[i]
			live++
		}
		streams, cpus = streams[:live], cpus[:live]
	}
	return nil
}

// warmRef runs one reference's transition without its accounting. A
// warm prefetch's line is pending with an already-elapsed arrival time,
// so a demand hit in the measured window pays no arrival stall —
// matching a prefetch issued far enough ahead, which is what the
// warm-up window's lead distance amounts to. A page fault goes unbooked
// (the address-space counter still sees it, keeping Result.PageFaults
// honest about a wrap seam the pre-touch missed).
func (m *Machine) warmRef(c *cpuState, r *trace.Ref) error {
	m.warmRefs++
	switch r.Kind {
	case trace.Prefetch:
		if m.prefetchRef(c, r) {
			c.pending[m.llcLineAddr(c.out.paddr)] = c.clock
		}
		return nil
	case trace.Inst:
		return m.instRef(c, r)
	default:
		return m.dataRef(c, r)
	}
}
