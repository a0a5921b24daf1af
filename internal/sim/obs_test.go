package sim

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/vm"
)

// TestRemoteSupplyCleansOwner exercises the writeback double-count fix:
// when a dirty line is flushed to memory to supply a remote read, the
// owner's cached copy must be marked clean, or its eventual eviction
// charges the bus for a writeback whose data already went to memory.
func TestRemoteSupplyCleansOwner(t *testing.T) {
	m := newSolo(t, Options{Config: smallConfig(2)}, ProcessOptions{})
	paddr := uint64(0x4000)
	m.cpus[1].llc.slices[0].Access(paddr, true) // CPU1 holds the line dirty
	m.dir.Access(1, paddr, true)

	out := m.dir.Access(0, paddr, false)
	if !out.DirtyRemote || out.Downgraded != 1 {
		t.Fatalf("read of dirty remote: DirtyRemote=%v Downgraded=%d, want true/1",
			out.DirtyRemote, out.Downgraded)
	}
	m.applyDowngrade(paddr, out.Downgraded)
	if present, dirty := m.cpus[1].llc.slices[0].Invalidate(paddr); !present || dirty {
		t.Errorf("owner line after downgrade: present=%v dirty=%v, want clean and resident",
			present, dirty)
	}
}

// codeThrashProgram builds a single-CPU program whose instruction
// footprint (4 code pages) aliases in the external cache with a data
// sweep covering every color, so code pages take repeated conflict
// misses.
func codeThrashProgram() *ir.Program {
	elems := 16 * 4096 / 8 // 16 data pages: one per color of smallConfig
	a := &ir.Array{Name: "a", ElemSize: 8, Elems: elems}
	nest := &ir.Nest{
		Name: "hotcode", Parallel: false, Iterations: 16, InnerIters: elems / 16,
		Accesses:      []ir.Access{{Array: a, Kind: ir.Load, OuterStride: elems / 16, InnerStride: 1}},
		InstFootprint: 16 << 10, // 4 code pages, refetched every iteration
	}
	return &ir.Program{Name: "hotcode", Arrays: []*ir.Array{a},
		Phases:   []*ir.Phase{{Name: "p", Occurrences: 1, Nests: []*ir.Nest{nest}}},
		CodeSize: 16 << 10}
}

// TestHotCodePageRecolors is the regression test for the instruction
// path never feeding the dynamic recoloring policy: a thrashing hot
// code page must be observed and moved just like a data page.
func TestHotCodePageRecolors(t *testing.T) {
	cfg := smallConfig(1)
	prog := codeThrashProgram()
	if err := compilerLayout(prog, cfg); err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(256)
	col := obs.NewCollector(obs.Options{Tracer: ring})
	policy := vm.RecolorPolicy{MissThreshold: 16, MaxRecolorings: 2}
	m, err := New(Options{Config: cfg, Obs: col, SkipWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(ProcessOptions{Source: ProgramSource(prog), Policy: vm.PageColoring{Colors: cfg.Colors()}, Recolor: &policy})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Total(func(s *CPUStats) uint64 { return s.Recolorings }); got == 0 {
		t.Fatal("no recolorings under code/data thrash")
	}

	codeLo := prog.CodeBase >> 12
	codeHi := (prog.CodeBase + uint64(prog.CodeSize) - 1) >> 12
	recoloredCode := false
	for _, ev := range ring.Events() {
		if ev.Kind == obs.EvRecolor && ev.VPN >= codeLo && ev.VPN <= codeHi {
			recoloredCode = true
			if ev.Color == ev.Prev {
				t.Errorf("recolor event with unchanged color: %+v", ev)
			}
		}
	}
	if !recoloredCode {
		t.Errorf("no code page (vpn %d-%d) was recolored; events: %v",
			codeLo, codeHi, ring.Events())
	}
	if vs := res.Audit(); len(vs) != 0 {
		t.Errorf("audit violations after recoloring run: %v", vs)
	}
}

// TestObservationLeavesResultIdentical checks the collector is passive:
// an instrumented run produces a Result deeply equal to a bare one.
func TestObservationLeavesResultIdentical(t *testing.T) {
	cfg := smallConfig(4)
	bare := mustRun(t, makeProgram(8, 32, 1), Options{Config: cfg})
	col := obs.NewCollector(obs.Options{Tracer: obs.NewRing(64)})
	observed := mustRun(t, makeProgram(8, 32, 1), Options{Config: cfg, Obs: col})
	if !reflect.DeepEqual(bare, observed) {
		t.Errorf("observation perturbed the result:\nbare     %+v\nobserved %+v", bare, observed)
	}
	// And the collector actually collected.
	total := uint64(0)
	for _, cc := range col.PerColor() {
		total += cc.Total()
	}
	if total == 0 {
		t.Error("collector attributed no misses on a missing workload")
	}
	if total != observed.Total(func(s *CPUStats) uint64 { return s.L2Misses }) {
		t.Errorf("attributed %d misses, result has %d", total,
			observed.Total(func(s *CPUStats) uint64 { return s.L2Misses }))
	}
}

// TestAuditDetectsCounterDrift corrupts each conserved quantity of a
// clean result and checks the matching invariant trips.
func TestAuditDetectsCounterDrift(t *testing.T) {
	res := mustRun(t, makeProgram(8, 16, 1), Options{Config: smallConfig(2)})
	if vs := res.Audit(); len(vs) != 0 {
		t.Fatalf("clean run has violations: %v", vs)
	}
	find := func(vs []obs.Violation, check string) bool {
		for _, v := range vs {
			if v.Check == check {
				return true
			}
		}
		return false
	}

	drift := *res
	drift.PerCPU = append([]CPUStats(nil), res.PerCPU...)
	drift.PerCPU[0].ExecCycles++
	if vs := drift.Audit(); !find(vs, "cycle-conservation") {
		t.Errorf("exec-cycle drift not caught: %v", vs)
	}

	drift = *res
	drift.PerCPU = append([]CPUStats(nil), res.PerCPU...)
	drift.PerCPU[1].ColdMisses++
	if vs := drift.Audit(); !find(vs, "miss-conservation") {
		t.Errorf("miss drift not caught: %v", vs)
	}

	drift = *res
	drift.Bus.DataCycles += drift.WallCycles + 1
	if vs := drift.Audit(); !find(vs, "bus-occupancy") {
		t.Errorf("bus over-occupancy not caught: %v", vs)
	}
}

// pidsSeen returns the sorted set of PIDs carried by a collector's
// events and page records.
func pidsSeen(ring *obs.Ring, col *obs.Collector) (events, pages []int) {
	for _, ev := range ring.Events() {
		if !slices.Contains(events, ev.PID) {
			events = append(events, ev.PID)
		}
	}
	for _, p := range col.TopPages(col.Pages()) {
		if !slices.Contains(pages, p.PID) {
			pages = append(pages, p.PID)
		}
	}
	slices.Sort(events)
	slices.Sort(pages)
	return events, pages
}

// TestObservedPIDs checks the process ids observation carries: a solo
// run is pid 0 in every event and page record, and a 2-process mix's
// records carry pids 1 and 2, both present.
func TestObservedPIDs(t *testing.T) {
	cfg := smallConfig(4)
	ring := obs.NewRing(1 << 16)
	col := obs.NewCollector(obs.Options{Tracer: ring})
	mustRun(t, makeProgram(8, 32, 1), Options{Config: cfg, Obs: col})
	events, pages := pidsSeen(ring, col)
	if !slices.Equal(events, []int{0}) || !slices.Equal(pages, []int{0}) {
		t.Errorf("solo run: event pids %v, page pids %v; want [0] and [0]", events, pages)
	}

	ring = obs.NewRing(1 << 16)
	col = obs.NewCollector(obs.Options{Tracer: ring})
	multiRun(t, Options{Config: cfg, Obs: col}, twoProcs(true), SchedOptions{Policy: SchedTimeSlice, Quantum: 50_000})
	events, pages = pidsSeen(ring, col)
	if !slices.Equal(events, []int{1, 2}) || !slices.Equal(pages, []int{1, 2}) {
		t.Errorf("2-process mix: event pids %v, page pids %v; want [1 2] and [1 2]", events, pages)
	}
}
