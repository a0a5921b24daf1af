package sim

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/trace"
	"repro/internal/vm"
)

// makeProgram builds a simple partitioned two-array stencil sized in
// pages per array. offset != 0 adds a load of the neighbor's boundary
// element of b (shift communication: b is also written, so boundary
// reads are genuine producer→consumer sharing).
func makeProgram(pagesPerArray, iters int, offset int) *ir.Program {
	elems := pagesPerArray * 4096 / 8
	unit := elems / iters
	a := &ir.Array{Name: "a", ElemSize: 8, Elems: elems}
	b := &ir.Array{Name: "b", ElemSize: 8, Elems: elems}
	accesses := []ir.Access{
		{Array: a, Kind: ir.Load, OuterStride: unit, InnerStride: 1},
		{Array: b, Kind: ir.Store, OuterStride: unit, InnerStride: 1},
	}
	if offset != 0 {
		accesses = append(accesses, ir.Access{Array: b, Kind: ir.Load, OuterStride: unit, InnerStride: 1, Offset: offset})
	}
	nest := &ir.Nest{
		Name:        "sweep",
		Parallel:    true,
		Iterations:  iters,
		InnerIters:  unit,
		Accesses:    accesses,
		WorkPerIter: 2,
		Sched:       ir.Schedule{Kind: ir.Even},
	}
	prog := &ir.Program{
		Name:   "simtest",
		Arrays: []*ir.Array{a, b},
		Phases: []*ir.Phase{{Name: "main", Occurrences: 1, Nests: []*ir.Nest{nest}}},
	}
	return prog
}

func smallConfig(ncpu int) arch.Config {
	cfg := arch.Base(ncpu, 16) // 64KB L2, 16 colors
	return cfg
}

// newSolo builds a machine whose every CPU runs one process (pid 0)
// placed by po, for tests that drive the engine below Run; a nil source
// becomes a one-page program.
func newSolo(t *testing.T, opts Options, po ProcessOptions) *Machine {
	t.Helper()
	if po.Source == nil {
		po.Source = ProgramSource(makeProgram(1, 1, 0))
	}
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.solo(po); err != nil {
		t.Fatal(err)
	}
	return m
}

// mustRun lays prog out and runs it alone under the default placement.
func mustRun(t *testing.T, prog *ir.Program, opts Options) *Result {
	t.Helper()
	return mustRunProc(t, opts, ProcessOptions{Source: ProgramSource(prog)})
}

// mustRunProc lays out po's program and runs its process alone.
func mustRunProc(t *testing.T, opts Options, po ProcessOptions) *Result {
	t.Helper()
	if err := compilerLayout(progOf(po), opts.Config); err != nil {
		t.Fatal(err)
	}
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(po)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func compilerLayout(prog *ir.Program, cfg arch.Config) error {
	return compiler.Layout(prog, compiler.DefaultLayout(cfg.L2.LineSize, cfg.L1D.Size, cfg.PageSize))
}

func TestRunProducesSaneResult(t *testing.T) {
	prog := makeProgram(8, 16, 0)
	res := mustRun(t, prog, Options{Config: smallConfig(4), SkipWarmup: true})
	if res.NumCPUs != 4 || len(res.PerCPU) != 4 {
		t.Fatalf("cpu counts wrong: %+v", res)
	}
	if res.WallCycles == 0 {
		t.Error("zero wall clock")
	}
	inst := res.Total(func(s *CPUStats) uint64 { return s.Instructions })
	// 16 iters * 256 inner * (2 refs + 2 work)... at least refs count.
	if inst == 0 {
		t.Error("no instructions executed")
	}
	if res.PageFaults == 0 {
		t.Error("no page faults: first touches must fault")
	}
}

func TestCycleAccountingInvariant(t *testing.T) {
	// Every cycle a CPU's clock advances must be booked into exactly one
	// stats bucket: final clock == TotalCycles.
	prog := makeProgram(8, 16, 1)
	prog.Phases[0].Nests = append(prog.Phases[0].Nests, &ir.Nest{
		Name: "serial", Parallel: false, Iterations: 4, InnerIters: 16,
		Accesses:    []ir.Access{{Array: prog.Arrays[0], Kind: ir.Load, OuterStride: 16, InnerStride: 1}},
		WorkPerIter: 1,
	})
	cfg := smallConfig(4)
	if err := compilerLayout(prog, cfg); err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{Config: cfg, SkipWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(ProcessOptions{Source: ProgramSource(prog)}); err != nil {
		t.Fatal(err)
	}
	for _, c := range m.cpus {
		if c.clock != c.stats.TotalCycles() {
			t.Errorf("cpu %d: clock %d != booked %d (diff %d)", c.id, c.clock, c.stats.TotalCycles(), int64(c.clock)-int64(c.stats.TotalCycles()))
		}
	}
}

func TestSequentialNestChargesSlaves(t *testing.T) {
	prog := makeProgram(4, 8, 0)
	prog.Phases[0].Nests[0].Parallel = false
	res := mustRun(t, prog, Options{Config: smallConfig(4), SkipWarmup: true})
	if res.PerCPU[0].SequentialCycles != 0 {
		t.Error("master charged sequential idle")
	}
	for cpu := 1; cpu < 4; cpu++ {
		if res.PerCPU[cpu].SequentialCycles == 0 {
			t.Errorf("slave %d has no sequential time", cpu)
		}
	}
}

func TestSuppressedNestChargesSuppressed(t *testing.T) {
	prog := makeProgram(4, 8, 0)
	prog.Phases[0].Nests[0].Suppressed = true
	res := mustRun(t, prog, Options{Config: smallConfig(4), SkipWarmup: true})
	for cpu := 1; cpu < 4; cpu++ {
		if res.PerCPU[cpu].SuppressedCycles == 0 {
			t.Errorf("slave %d has no suppressed time", cpu)
		}
	}
}

func TestLoadImbalanceFromUnevenIterations(t *testing.T) {
	// 5 iterations on 4 CPUs (even schedule): one CPU does 2, others 1.
	prog := makeProgram(8, 5, 0)
	res := mustRun(t, prog, Options{Config: smallConfig(4), SkipWarmup: true})
	imb := res.Total(func(s *CPUStats) uint64 { return s.ImbalanceCycles })
	if imb == 0 {
		t.Error("no load imbalance for 5 iterations on 4 CPUs")
	}
}

func TestBalancedNestHasLowImbalance(t *testing.T) {
	prog := makeProgram(8, 16, 0) // 4 iterations per CPU exactly
	res := mustRun(t, prog, Options{Config: smallConfig(4), SkipWarmup: true})
	imb := res.Total(func(s *CPUStats) uint64 { return s.ImbalanceCycles })
	wall := res.WallCycles * 4
	if float64(imb) > 0.2*float64(wall) {
		t.Errorf("imbalance %d is more than 20%% of combined time %d", imb, wall)
	}
}

func TestPhaseWeighting(t *testing.T) {
	prog1 := makeProgram(4, 8, 0)
	prog2 := makeProgram(4, 8, 0)
	prog2.Phases[0].Occurrences = 10
	r1 := mustRun(t, prog1, Options{Config: smallConfig(2), SkipWarmup: true})
	r2 := mustRun(t, prog2, Options{Config: smallConfig(2), SkipWarmup: true})
	// Same single execution, 10x the weight.
	if r2.WallCycles <= 5*r1.WallCycles {
		t.Errorf("weighted wall %d vs %d: want ~10x", r2.WallCycles, r1.WallCycles)
	}
}

func TestWarmupDiscardsColdMisses(t *testing.T) {
	prog := makeProgram(4, 8, 0)
	cold := func(skip bool) uint64 {
		p := makeProgram(4, 8, 0)
		r := mustRun(t, p, Options{Config: smallConfig(2), SkipWarmup: skip})
		_ = prog
		return r.Total(func(s *CPUStats) uint64 { return s.ColdMisses })
	}
	if c := cold(false); c != 0 {
		t.Errorf("cold misses survive warmup: %d", c)
	}
	if c := cold(true); c == 0 {
		t.Error("no cold misses without warmup")
	}
}

func TestPageColoringConflictVsCDPC(t *testing.T) {
	// Two arrays of exactly one cache span (16 pages) each: page i of a
	// and page i of b have the same color under page coloring, so the
	// a-load and b-store streams thrash each other at every position —
	// the paper's under-utilization pathology. CDPC interleaves the two
	// chunks in color space.
	cfg := smallConfig(2)
	colors := cfg.Colors() // 16 pages of 4KB = 64KB cache
	prog := makeProgram(16, 16, 0)

	base := mustRunProc(t, Options{Config: cfg}, ProcessOptions{Source: ProgramSource(prog), Policy: vm.PageColoring{Colors: colors}})
	baseConf := base.Total(func(s *CPUStats) uint64 { return s.ConflictMisses })
	if baseConf == 0 {
		t.Fatal("expected conflict misses under page coloring with colliding arrays")
	}

	prog2 := makeProgram(16, 16, 0)
	if err := compilerLayout(prog2, cfg); err != nil {
		t.Fatal(err)
	}
	sum := compiler.Summarize(prog2)
	h, err := core.ComputeHints(prog2, sum, core.Params{NumCPUs: 2, NumColors: colors, PageSize: cfg.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	cdpc, err := m.Run(ProcessOptions{Source: ProgramSource(prog2), Policy: vm.PageColoring{Colors: colors}, Hints: h.Colors})
	if err != nil {
		t.Fatal(err)
	}
	cdpcConf := cdpc.Total(func(s *CPUStats) uint64 { return s.ConflictMisses })
	if cdpcConf*2 >= baseConf {
		t.Errorf("CDPC conflicts %d not well below page coloring's %d", cdpcConf, baseConf)
	}
	if cdpc.WallCycles >= base.WallCycles {
		t.Errorf("CDPC wall %d not faster than page coloring %d", cdpc.WallCycles, base.WallCycles)
	}
}

func TestPrefetchingHidesLatency(t *testing.T) {
	// Big streaming sweep with capacity misses: prefetching should cut
	// the demand miss stall substantially. Enough work per iteration
	// keeps the bus under capacity so latency can actually be hidden.
	// 72-page arrays put a's and b's chunks 8 colors apart under page
	// coloring, so the streams do not thrash each other: the remaining
	// misses are pure capacity misses, the kind prefetching hides. (With
	// colliding colors, prefetched lines are displaced before use — the
	// §6.2 interaction the combined CDPC+prefetch experiment measures.)
	cfg := smallConfig(1)
	mk := func() *ir.Program {
		p := makeProgram(72, 18, 0) // 576KB > 64KB cache
		p.Phases[0].Nests[0].WorkPerIter = 16
		return p
	}
	plain := mustRun(t, mk(), Options{Config: cfg})

	pf := mk()
	compiler.InsertPrefetches(pf, compiler.DefaultPrefetch())
	pres := mustRun(t, pf, Options{Config: cfg})

	if pres.Total(func(s *CPUStats) uint64 { return s.PrefetchesIssued }) == 0 {
		t.Fatal("no prefetches issued")
	}
	plainRepl := plain.Total((*CPUStats).ReplacementStall)
	pfRepl := pres.Total((*CPUStats).ReplacementStall)
	if pfRepl*2 >= plainRepl {
		t.Errorf("prefetch replacement stall %d not well below %d", pfRepl, plainRepl)
	}
	if pres.WallCycles >= plain.WallCycles {
		t.Errorf("prefetching did not speed up: %d vs %d", pres.WallCycles, plain.WallCycles)
	}
}

func TestPrefetchDroppedOnUnmappedTLB(t *testing.T) {
	// Large stride across many pages: TLB coverage is small, so many
	// prefetches hit unmapped TLB entries and are dropped (§6.2).
	cfg := smallConfig(1)
	cfg.TLBEntries = 4
	elems := 64 * 4096 / 8
	a := &ir.Array{Name: "a", ElemSize: 8, Elems: elems}
	nest := &ir.Nest{
		Name: "strided", Parallel: true, Iterations: 16, InnerIters: elems / 16 / 64,
		Accesses: []ir.Access{{Array: a, Kind: ir.Load, OuterStride: elems / 16, InnerStride: 64, Prefetch: true, PrefetchDistance: 8}},
		Sched:    ir.Schedule{Kind: ir.Even},
	}
	prog := &ir.Program{Name: "strided", Arrays: []*ir.Array{a},
		Phases: []*ir.Phase{{Name: "p", Occurrences: 1, Nests: []*ir.Nest{nest}}}}
	res := mustRun(t, prog, Options{Config: cfg, SkipWarmup: true})
	if res.Total(func(s *CPUStats) uint64 { return s.PrefetchesDropped }) == 0 {
		t.Error("expected dropped prefetches with a tiny TLB and page-crossing strides")
	}
}

func TestBusUtilizationGrowsWithCPUs(t *testing.T) {
	mk := func() *ir.Program { return makeProgram(64, 64, 0) }
	u1 := mustRun(t, mk(), Options{Config: smallConfig(1), SkipWarmup: true}).BusUtilization()
	u8 := mustRun(t, mk(), Options{Config: smallConfig(8), SkipWarmup: true}).BusUtilization()
	if u8 <= u1 {
		t.Errorf("bus utilization did not grow: 1cpu=%.3f 8cpu=%.3f", u1, u8)
	}
}

func TestTouchOrderSerializesFaults(t *testing.T) {
	cfg := smallConfig(2)
	prog := makeProgram(8, 16, 0)
	if err := compilerLayout(prog, cfg); err != nil {
		t.Fatal(err)
	}
	var order []uint64
	for _, a := range prog.Arrays {
		for vpn := a.Base / 4096; vpn*4096 < a.EndAddr(); vpn++ {
			order = append(order, vpn)
		}
	}
	m, err := New(Options{Config: cfg, SkipWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(ProcessOptions{Source: ProgramSource(prog), Policy: &vm.BinHopping{Colors: cfg.Colors()}, TouchOrder: order})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Touch-order faulting is a startup cost: it lands on the master's
	// raw stats, not in the measured steady state.
	if m.cpus[0].stats.PageFaults == 0 {
		t.Error("touch-order faults not charged to the master")
	}
	if m.cpus[0].stats.KernelCycles == 0 {
		t.Error("serialized fault time not booked as kernel time")
	}
	// All data pages were pre-faulted: the run itself faults only code pages.
	if got := m.cpus[0].as.Faults; got < uint64(len(order)) {
		t.Errorf("faults %d < touched pages %d", got, len(order))
	}
}

func TestTrueSharingDetected(t *testing.T) {
	// Neighbor-shift stencil: each CPU reads its right neighbor's
	// boundary element every outer iteration.
	prog := makeProgram(8, 32, 1)
	res := mustRun(t, prog, Options{Config: smallConfig(4)})
	ts := res.Total(func(s *CPUStats) uint64 { return s.TrueShareMisses })
	if ts == 0 {
		t.Error("no true sharing detected for boundary communication")
	}
}

func TestMCPIPositiveUnderMisses(t *testing.T) {
	prog := makeProgram(64, 16, 0) // working set 4x the cache
	res := mustRun(t, prog, Options{Config: smallConfig(1)})
	if res.MCPI() <= 0 {
		t.Errorf("MCPI = %v, want > 0 for an out-of-cache sweep", res.MCPI())
	}
}

func TestDisableClassification(t *testing.T) {
	prog := makeProgram(64, 16, 0)
	res := mustRun(t, prog, Options{Config: smallConfig(1), DisableClassification: true})
	if res.Total(func(s *CPUStats) uint64 { return s.ConflictMisses }) != 0 {
		t.Error("conflict misses reported with classification disabled")
	}
	if res.Total(func(s *CPUStats) uint64 { return s.CapacityMisses }) == 0 {
		t.Error("replacement misses should land in capacity with classification off")
	}
}

func TestInstructionStreamStalls(t *testing.T) {
	// fpppp-style: huge instruction footprint per iteration.
	cfg := smallConfig(1)
	a := &ir.Array{Name: "a", ElemSize: 8, Elems: 512}
	nest := &ir.Nest{
		Name: "bigcode", Parallel: false, Iterations: 4, InnerIters: 8,
		Accesses:      []ir.Access{{Array: a, Kind: ir.Load, OuterStride: 8, InnerStride: 1}},
		InstFootprint: 16 << 10, // 16KB of code per iteration > 4KB L1I
	}
	prog := &ir.Program{Name: "fppppish", Arrays: []*ir.Array{a},
		Phases:   []*ir.Phase{{Name: "p", Occurrences: 1, Nests: []*ir.Nest{nest}}},
		CodeSize: 32 << 10}
	res := mustRun(t, prog, Options{Config: cfg, SkipWarmup: true})
	if res.Total(func(s *CPUStats) uint64 { return s.StallInst }) == 0 {
		t.Error("no instruction stall for a 16KB loop body on a 2KB L1I")
	}
}

func TestResultHelpers(t *testing.T) {
	prog := makeProgram(8, 16, 0)
	res := mustRun(t, prog, Options{Config: smallConfig(2), SkipWarmup: true})
	if res.CombinedCycles() != res.WallCycles*2 {
		t.Error("CombinedCycles mismatch")
	}
	if res.Speedup(res) != 1.0 {
		t.Error("self speedup != 1")
	}
}

func TestDynamicRecoloringReducesConflicts(t *testing.T) {
	// Same colliding-arrays setup as the CDPC test: dynamic recoloring
	// should detect the thrash and move pages to colder colors.
	// 12-page arrays: per CPU, two of the six a-pages collide with two
	// b-pages while ten colors stay free — detectable conflicts that a
	// page move can fix (unlike pure capacity pressure, which recoloring
	// cannot help).
	cfg := smallConfig(2)
	colors := cfg.Colors()
	mk := func() *ir.Program { return makeProgram(12, 12, 0) }

	base := mustRunProc(t, Options{Config: cfg}, ProcessOptions{Source: ProgramSource(mk()), Policy: vm.PageColoring{Colors: colors}})
	baseConf := base.Total(func(s *CPUStats) uint64 { return s.ConflictMisses })
	if baseConf == 0 {
		t.Fatal("expected conflicts in the baseline")
	}

	// A lower threshold than the default lets the reactive policy
	// converge within the short test run.
	policy := vm.RecolorPolicy{MissThreshold: 16, MaxRecolorings: 4}
	prog := mk()
	if err := compilerLayout(prog, cfg); err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := m.Run(ProcessOptions{Source: ProgramSource(prog), Policy: vm.PageColoring{Colors: colors}, Recolor: &policy})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.recolorer.Recolorings(); got == 0 {
		t.Fatal("no recolorings happened")
	}
	dynConf := dyn.Total(func(s *CPUStats) uint64 { return s.ConflictMisses })
	if dynConf*2 > baseConf {
		t.Errorf("recoloring did not cut conflicts: %d vs %d", dynConf, baseConf)
	}
	// The fix is not free: over this short window the copies, TLB
	// shootdowns and invalidations outweigh the saved misses — the
	// paper's §2.1 argument against dynamic policies on multiprocessors.
	// The overhead must at least be visible as kernel time.
	if dyn.Total(func(s *CPUStats) uint64 { return s.KernelCycles }) <=
		base.Total(func(s *CPUStats) uint64 { return s.KernelCycles }) {
		t.Error("recoloring overhead not charged as kernel time")
	}
}

func TestDynamicRecoloringChargesCosts(t *testing.T) {
	cfg := smallConfig(4)
	policy := vm.RecolorPolicy{MissThreshold: 16, MaxRecolorings: 8}
	prog := makeProgram(16, 16, 0)
	if err := compilerLayout(prog, cfg); err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{Config: cfg, SkipWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(ProcessOptions{Source: ProgramSource(prog), Policy: vm.PageColoring{Colors: cfg.Colors()}, Recolor: &policy})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Total(func(s *CPUStats) uint64 { return s.Recolorings })
	if rec == 0 {
		t.Skip("no recolorings in measured window")
	}
	kern := res.Total(func(s *CPUStats) uint64 { return s.KernelCycles })
	if kern < rec*recolorKernelCycles {
		t.Errorf("kernel cycles %d do not cover %d recolorings", kern, rec)
	}
	// Cycle accounting must still balance.
	for _, c := range m.cpus {
		if c.clock != c.stats.TotalCycles() {
			t.Errorf("cpu %d: clock %d != booked %d after recolorings", c.id, c.clock, c.stats.TotalCycles())
		}
	}
}

func TestWriteBufferTransparentOnBlockingCPU(t *testing.T) {
	// A microarchitectural result the model makes visible: on a
	// single-issue CPU with blocking demand misses, every path that
	// evicts a dirty line is throttled by something slower than the
	// write-back drain (the miss stall itself, or the 4-outstanding
	// prefetch limit), so even a 1-entry write buffer never blocks. The
	// mechanism exists for faster CPU models; here it must be free.
	mk := func(entries int) uint64 {
		cfg := smallConfig(8)
		cfg.WriteBufferEntries = entries
		prog := makeProgram(64, 16, 0) // streaming stores: heavy writebacks
		compiler.InsertPrefetches(prog, compiler.DefaultPrefetch())
		res := mustRun(t, prog, Options{Config: cfg, SkipWarmup: true})
		return res.Total(func(s *CPUStats) uint64 { return s.StallWriteBuffer })
	}
	for _, entries := range []int{0, 1, 8} {
		if got := mk(entries); got != 0 {
			t.Errorf("write buffer (%d entries) stalled %d cycles on a blocking-load CPU", entries, got)
		}
	}
}

func TestWriteBufferMechanism(t *testing.T) {
	// Drive the buffer bookkeeping directly: two dirty evictions in the
	// same cycle with a 1-entry buffer must stall the second until the
	// first write-back's bus transaction completes.
	cfg := smallConfig(1)
	cfg.WriteBufferEntries = 1
	m := newSolo(t, Options{Config: cfg}, ProcessOptions{})
	c := m.cpus[0]
	evict := func(victim uint64) {
		if !m.evictLLC(c, cache.Result{Evicted: true, VictimAddr: victim, VictimDirty: true}) {
			t.Fatalf("dirty victim %#x not written back", victim)
		}
		m.writeback(c)
	}
	evict(0x10000)
	if c.stats.StallWriteBuffer != 0 {
		t.Fatal("first eviction must not stall")
	}
	evict(0x20000)
	if c.stats.StallWriteBuffer == 0 {
		t.Error("second same-cycle eviction should stall on the full buffer")
	}
	if c.clock != c.stats.StallWriteBuffer {
		t.Errorf("stall not reflected in clock: clock=%d stall=%d", c.clock, c.stats.StallWriteBuffer)
	}
}

// TestLLCEvictionDropsEveryL1SubLine: inclusion must hold when the L1I
// and L1D line sizes differ. With 16-byte L1I lines under 32-byte L1D
// lines, an LLC eviction must leave no L1I or L1D sub-line of the
// evicted line. The L1I fills through instruction fetches, the only
// way the engine fills it.
func TestLLCEvictionDropsEveryL1SubLine(t *testing.T) {
	cfg := smallConfig(1)
	cfg.L1I.LineSize = 16
	m := newSolo(t, Options{Config: cfg}, ProcessOptions{})
	c := m.cpus[0]
	const vaddr = 0x40000 // page-aligned, so its frame address is LLC-line-aligned
	paddr, _, err := c.as.Translate(vaddr, 0)
	if err != nil {
		t.Fatal(err)
	}
	llcLine := uint64(m.llcLine)
	for off := uint64(0); off < llcLine; off += uint64(c.l1i.Geom.LineSize) {
		if err := m.instRef(c, &trace.Ref{Kind: trace.Inst, VAddr: vaddr + off}); err != nil {
			t.Fatal(err)
		}
	}
	for off := uint64(0); off < llcLine; off += uint64(c.l1d.Geom.LineSize) {
		c.l1d.Access(vaddr+off, false)
	}
	m.evictLLC(c, cache.Result{Evicted: true, VictimAddr: paddr})
	for _, l1 := range []*cache.Cache{c.l1i, c.l1d} {
		for off := uint64(0); off < llcLine; off += uint64(l1.Geom.LineSize) {
			if l1.Probe(vaddr + off) {
				t.Errorf("%d-byte L1 line at %#x survived the eviction of LLC line %#x", l1.Geom.LineSize, vaddr+off, paddr)
			}
		}
	}
}

// TestLLCEvictionWritesBackDirtyMidLine: an inclusive intermediate level
// with lines smaller than the LLC's loses every sub-line of an evicted
// LLC line, and a dirty sub-line that is not the first one joins the
// victim's writeback even when the LLC copy itself is clean.
func TestLLCEvictionWritesBackDirtyMidLine(t *testing.T) {
	for _, dirtyMid := range []bool{false, true} {
		cfg := smallConfig(1)
		cfg.Topology = &arch.Topology{Name: "mid32", Levels: []arch.Level{
			{Name: "L2", Geom: arch.CacheGeometry{Size: 16 << 10, LineSize: 32, Assoc: 2}, CPUsPerCache: 1, HitCycles: 4, Inclusive: true, Slices: 1},
			{Name: "L3", Geom: cfg.L2, CPUsPerCache: 1, HitCycles: cfg.L2HitCycles, Inclusive: true, Slices: 1},
		}}
		m := newSolo(t, Options{Config: cfg}, ProcessOptions{})
		c := m.cpus[0]
		paddr, _, err := c.as.Translate(0x40000, 0)
		if err != nil {
			t.Fatal(err)
		}
		mid, llcLine := c.mids[0], uint64(m.llcLine)
		for off := uint64(0); off < llcLine; off += 32 {
			mid.Access(paddr+off, dirtyMid && off == 64)
		}
		if m.evictLLC(c, cache.Result{Evicted: true, VictimAddr: paddr}) {
			m.writeback(c)
		}
		for off := uint64(0); off < llcLine; off += 32 {
			if mid.Probe(paddr + off) {
				t.Errorf("dirty %v: mid-level line %#x survived the eviction of LLC line %#x", dirtyMid, paddr+off, paddr)
			}
		}
		want := uint64(0)
		if dirtyMid {
			want = 1
		}
		if got := m.bus.Transactions(bus.Writeback); got != want {
			t.Errorf("dirty %v: %d writebacks, want %d", dirtyMid, got, want)
		}
	}
}
