package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sim"
)

// Scheduler runs Specs on a bounded worker pool and memoizes every
// result, so that experiments sharing a configuration (the page-coloring
// baselines of Figures 2, 6 and 8, the per-variant runs of Table 2) pay
// for each simulation exactly once per process. Run is pure — a Spec
// fully determines its Result — which is what makes both the
// parallelism and the memoization sound.
//
// The intended shape is a run/render split: an experiment first Warms
// the full set of Specs it will need (executed concurrently, completion
// order irrelevant), then renders its output serially through Run, which
// returns memoized results in the experiment's own deterministic order.
// Output is therefore byte-identical to a fully serial execution.
type Scheduler struct {
	workers int

	// hits counts Run/RunCtx calls served from (or coalesced onto) the
	// memo cache; misses counts calls that executed a new simulation.
	// Instrumented specs bypass the cache and count as misses.
	hits   atomic.Uint64
	misses atomic.Uint64

	mu    sync.Mutex
	memo  map[specKey]*memoEntry // guarded by mu
	progs map[progKey]*progEntry // guarded by mu
}

// memoEntry is one memoized (possibly in-flight) simulation. Every spec
// memoizes as a process mix — a solo spec as a mix of one — so a single
// table serves Run and RunMulti alike. done is closed when res/err are
// valid; duplicate submissions of the same Spec block on it instead of
// re-running.
type memoEntry struct {
	done chan struct{}
	res  *sim.MultiResult
	err  error
}

// progEntry is one memoized compiled program. Programs are immutable
// after the compiler pipeline (Layout and InsertPrefetches assign bases
// and prefetch streams once; the simulator only reads them), so a single
// *ir.Program is safely shared by concurrent simulations.
type progEntry struct {
	done chan struct{}
	prog *ir.Program
	sum  *compiler.Summary
	err  error
}

// specKey is the canonical, comparable form of a Spec: defaults applied
// and pointer overrides flattened to value + presence flag.
type specKey struct {
	Workload              string
	Scale                 int
	CPUs                  int
	Machine               MachineKind
	Variant               Variant
	Prefetch              bool
	HasL2                 bool
	L2                    arch.CacheGeometry
	HasConfig             bool
	Config                arch.Config
	CDPCOptions           core.Options
	DisableClassification bool

	// Topology is the named cache topology, normalized so the empty
	// string and "default" (the same machine) share one memo slot.
	Topology string

	// Sampled distinguishes phase-sampled results from full-fidelity
	// ones: the two are different estimates of the same run and must
	// never share a memo slot. keyOf sees the spec after withDefaults,
	// which has already normalized unsupported combinations to full, so
	// a sampled key always denotes a run that actually sampled.
	Sampled bool

	// CoRunners is the canonical "workload/variant@domain;..." rendering
	// of the spec's co-runner list (inheritance resolved), empty for
	// single-process specs; Sched and Quantum are normalized so that
	// equivalent multiprocess specs share one cache slot.
	CoRunners string
	Sched     SchedKind
	Quantum   uint64

	// Isolate and Domain distinguish color-partitioned runs (and their
	// domain groupings) from unpartitioned ones: the two produce
	// different frame placements and must never share a memo slot.
	Isolate bool
	Domain  int

	// TraceName and TraceHash identify a trace-backed spec's workload:
	// the hash is the trace's content address (sha256 of its canonical
	// serialization), so two uploads of the same reference stream share
	// one memo slot while same-named traces with different content never
	// collide.
	TraceName string
	TraceHash string
}

func keyOf(s Spec) specKey {
	s = s.withDefaults()
	k := specKey{
		Workload:              s.Workload,
		Scale:                 s.Scale,
		CPUs:                  s.CPUs,
		Machine:               s.Machine,
		Variant:               s.Variant,
		Prefetch:              s.Prefetch,
		CDPCOptions:           s.CDPCOptions,
		DisableClassification: s.DisableClassification,
		Sampled:               s.Sampled,
	}
	if s.Topology != "default" {
		k.Topology = s.Topology
	}
	if s.L2Override != nil {
		k.HasL2, k.L2 = true, *s.L2Override
	}
	if s.ConfigOverride != nil {
		k.HasConfig, k.Config = true, *s.ConfigOverride
	}
	if len(s.CoRunners) > 0 {
		list := s.processSpecs()
		var b []byte
		for i, ps := range list[1:] {
			if i > 0 {
				b = append(b, ';')
			}
			b = append(b, ps.Workload...)
			b = append(b, '/')
			b = append(b, ps.Variant...)
			b = append(b, '@')
			b = fmt.Appendf(b, "%d", ps.Domain)
		}
		k.CoRunners = string(b)
		k.Sched = s.Sched
		if k.Sched == "" {
			k.Sched = SchedTimeSlice
		}
		if k.Sched == SchedTimeSlice {
			k.Quantum = s.Quantum
			if k.Quantum == 0 {
				k.Quantum = sim.DefaultQuantum
			}
		}
		k.Isolate = s.Isolate
		if s.Isolate {
			k.Domain = s.Domain
		}
	}
	if s.Trace != nil {
		k.TraceName = s.Trace.Name
		k.TraceHash = s.Trace.contentHash()
	}
	return k
}

// progKey identifies a compiled program: the workload and scale that
// build it plus everything the compiler pipeline depends on. Using the
// resolved LayoutOptions value captures every layout-relevant machine
// parameter (line size, L1 size, page size, external pad span) without
// enumerating them here.
type progKey struct {
	Workload string
	Scale    int
	Layout   compiler.LayoutOptions
	Prefetch bool
}

// NewScheduler creates a scheduler running at most workers simulations
// concurrently; workers <= 0 selects runtime.GOMAXPROCS(0).
func NewScheduler(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{
		workers: workers,
		memo:    make(map[specKey]*memoEntry),
		progs:   make(map[progKey]*progEntry),
	}
}

// Workers reports the pool size.
func (sc *Scheduler) Workers() int { return sc.workers }

// Run returns the result for spec, computing it on the calling
// goroutine if no memoized or in-flight run exists.
func (sc *Scheduler) Run(spec Spec) (*sim.Result, error) {
	return sc.RunCtx(context.Background(), spec)
}

// RunCtx is Run with cancellation. ctx is polled at region boundaries
// inside the simulation, so a canceled or expired context frees the
// calling worker at the next synchronization point. For a spec with
// co-runners the result is the machine total.
func (sc *Scheduler) RunCtx(ctx context.Context, spec Spec) (*sim.Result, error) {
	mr, err := sc.run(ctx, spec)
	if err != nil {
		return nil, err
	}
	return mr.Total, nil
}

// RunMulti returns the per-process and machine-wide results for a
// spec, memoized in the same table as Run (a solo spec is a mix of
// one). The memo key incorporates the resolved co-runner list, the
// scheduling discipline and the quantum, so co-scheduled runs are
// cached per multiprogramming mix, never conflated with each other or
// with solo runs.
func (sc *Scheduler) RunMulti(spec Spec) (*sim.MultiResult, error) {
	return sc.RunMultiCtx(context.Background(), spec)
}

// RunMultiCtx is RunMulti with cancellation (see RunCtx); trace-backed
// specs are rejected as by the package-level RunMultiCtx.
func (sc *Scheduler) RunMultiCtx(ctx context.Context, spec Spec) (*sim.MultiResult, error) {
	if spec.Trace != nil {
		return nil, errTraceMix
	}
	return sc.run(ctx, spec)
}

// run is the memo path behind every Run* method. Concurrent callers
// with the same Spec coalesce onto one simulation. Cancellation never
// poisons the memo cache: a run that dies on its owner's context error
// is removed from the cache, and callers that were coalesced onto it
// retry under their own (still live) context instead of inheriting the
// stranger's cancellation. Check runs before the memo lookup: keyOf
// drops the co-scheduling fields of a solo spec, so a memoized result
// must never stand in for a rejection, nor a rejection for a result.
func (sc *Scheduler) run(ctx context.Context, spec Spec) (*sim.MultiResult, error) {
	if err := Check(spec); err != nil {
		return nil, err
	}
	if spec.Obs != nil {
		// Instrumented specs are never memoized: a cached result could
		// not have filled this run's collector. The program cache is
		// still shared (observation does not perturb compiled programs).
		sc.misses.Add(1)
		return execute(ctx, spec, sc.prepare)
	}
	key := keyOf(spec)
	for {
		sc.mu.Lock()
		if e, ok := sc.memo[key]; ok {
			sc.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				// Stop waiting for someone else's run; the run itself
				// continues for its other waiters.
				return nil, ctx.Err()
			}
			if e.err != nil && isContextErr(e.err) {
				// The owning run was canceled (and the entry already
				// removed); re-enter the lookup and run it ourselves.
				continue
			}
			sc.hits.Add(1)
			return e.res, e.err
		}
		e := &memoEntry{done: make(chan struct{})}
		sc.memo[key] = e
		sc.mu.Unlock()
		sc.misses.Add(1)

		e.res, e.err = execute(ctx, spec, sc.prepare)
		if e.err != nil && isContextErr(e.err) {
			sc.mu.Lock()
			delete(sc.memo, key)
			sc.mu.Unlock()
		}
		close(e.done)
		return e.res, e.err
	}
}

// isContextErr reports whether err stems from context cancellation or
// expiry — the errors that describe the requester, not the spec, and so
// must never be memoized.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// CacheStats returns how many Run calls were served from (or coalesced
// onto) the memo cache and how many executed a new simulation.
func (sc *Scheduler) CacheStats() (hits, misses uint64) {
	return sc.hits.Load(), sc.misses.Load()
}

// HasResult reports whether spec's result is already memoized and
// complete, i.e. whether a Run would return it without simulating.
// Instrumented specs always report false (they bypass the cache), and
// so do specs Check rejects.
func (sc *Scheduler) HasResult(spec Spec) bool {
	if spec.Obs != nil || Check(spec) != nil {
		return false
	}
	key := keyOf(spec)
	sc.mu.Lock()
	e, ok := sc.memo[key]
	sc.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-e.done:
		return e.err == nil
	default:
		return false
	}
}

// Warm executes the given specs — solo or co-scheduled alike — on the
// worker pool and blocks until all have completed. Errors are not returned here: they are memoized and
// resurface from Run at the same (deterministic) point a serial
// execution would hit them, keeping failure behaviour identical.
func (sc *Scheduler) Warm(specs []Spec) {
	if len(specs) == 0 {
		return
	}
	n := sc.workers
	if n > len(specs) {
		n = len(specs)
	}
	if n <= 1 {
		// Degenerate pool: stay on this goroutine so single-worker runs
		// have exactly the serial execution profile.
		for _, s := range specs {
			sc.run(context.Background(), s) //nolint:errcheck // resurfaces at render time
		}
		return
	}
	ch := make(chan Spec)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range ch {
				sc.run(context.Background(), s) //nolint:errcheck // resurfaces at render time
			}
		}()
	}
	for _, s := range specs {
		ch <- s
	}
	close(ch)
	wg.Wait()
}

// Runs reports how many distinct simulations the scheduler has executed
// (or has in flight) — i.e. the memo cache size.
func (sc *Scheduler) Runs() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.memo)
}

// prepare resolves the spec's compiled program through the shared
// program cache, so parallel runs of the same workload don't redo the
// build + compiler pipeline. The layout key makes variants that need a
// different memory layout (unaligned, externally padded) compile their
// own copy.
func (sc *Scheduler) prepare(s Spec) (*ir.Program, *compiler.Summary, arch.Config, error) {
	cfg := s.Config()
	key := progKey{
		Workload: s.Workload,
		Scale:    s.Scale,
		Layout:   layoutFor(s.Variant, cfg),
		Prefetch: s.Prefetch,
	}
	sc.mu.Lock()
	if e, ok := sc.progs[key]; ok {
		sc.mu.Unlock()
		<-e.done
		return e.prog, e.sum, cfg, e.err
	}
	e := &progEntry{done: make(chan struct{})}
	sc.progs[key] = e
	sc.mu.Unlock()

	e.prog, e.sum, _, e.err = compile(s)
	close(e.done)
	return e.prog, e.sum, cfg, e.err
}

// layoutFor returns the layout options a variant selects under a
// machine config; Prepare and RunProgram both build layouts through
// it. Geometry comes from the effective topology's LLC — line size and
// total capacity — so padded variants pad against the cache the frames
// actually map into (a clustered L3 or the sum of hash-selected
// slices), not the default machine's per-CPU external cache.
func layoutFor(v Variant, cfg arch.Config) compiler.LayoutOptions {
	llc := cfg.Topo().LLC()
	layout := compiler.DefaultLayout(llc.Geom.LineSize, cfg.L1D.Size, cfg.PageSize)
	switch v {
	case BinHoppingUnaligned:
		layout.Align = false
		layout.Pad = false
	case PaddedColoring, PaddedBinHopping:
		layout.ExternalPad = true
		layout.ExternalCacheSize = llc.TotalSize()
	}
	return layout
}
