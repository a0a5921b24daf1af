package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
)

// multiRun builds a fresh machine and runs the given process table.
func multiRun(t *testing.T, opts Options, procs []ProcessOptions, sched SchedOptions) *MultiResult {
	t.Helper()
	for _, po := range procs {
		if err := compilerLayout(progOf(po), opts.Config); err != nil {
			t.Fatal(err)
		}
	}
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := m.RunProcesses(procs, sched)
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

// makeChunkedProgram is makeProgram split into `chunks` phases so the
// time-slice scheduler has multiple preemption points per program.
func makeChunkedProgram(pagesPerArray, iters, offset, chunks int) *ir.Program {
	prog := makeProgram(pagesPerArray, iters, offset)
	base := prog.Phases[0]
	prog.Phases = nil
	for i := 0; i < chunks; i++ {
		nest := *base.Nests[0]
		nest.Name = fmt.Sprintf("sweep%d", i)
		prog.Phases = append(prog.Phases, &ir.Phase{
			Name: nest.Name, Occurrences: 1, Nests: []*ir.Nest{&nest},
		})
	}
	return prog
}

func twoProcs(conflict bool) []ProcessOptions {
	offset := 0
	if conflict {
		offset = 8
	}
	return []ProcessOptions{
		{Source: ProgramSource(makeChunkedProgram(8, 16, offset, 6))},
		{Source: ProgramSource(makeChunkedProgram(8, 16, offset, 6))},
	}
}

func TestTimeSliceAuditsClean(t *testing.T) {
	mr := multiRun(t, Options{Config: smallConfig(4)}, twoProcs(true),
		SchedOptions{Policy: SchedTimeSlice, Quantum: 50_000})
	if len(mr.PerProcess) != 2 {
		t.Fatalf("want 2 per-process results, got %d", len(mr.PerProcess))
	}
	if vs := mr.Audit(); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("audit: %s: %s", v.Check, v.Detail)
		}
	}
	for i, r := range mr.PerProcess {
		if r.WallCycles == 0 || r.Total(func(s *CPUStats) uint64 { return s.Instructions }) == 0 {
			t.Errorf("proc %d ran nothing: %+v", i, r)
		}
	}
	// With two co-runners at a 50k quantum there must be switches, and
	// the total must carry them.
	if sw := mr.Total.Total(func(s *CPUStats) uint64 { return s.ContextSwitches }); sw == 0 {
		t.Error("no context switches recorded under time-slicing")
	}
	// Windows tile the timeline: per-process wall times sum to the total.
	if got := mr.PerProcess[0].WallCycles + mr.PerProcess[1].WallCycles; got != mr.Total.WallCycles {
		t.Errorf("scheduled windows %d != machine wall %d", got, mr.Total.WallCycles)
	}
}

func TestPartitionAuditsClean(t *testing.T) {
	mr := multiRun(t, Options{Config: smallConfig(4)}, twoProcs(true),
		SchedOptions{Policy: SchedPartition})
	if vs := mr.Audit(); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("audit: %s: %s", v.Check, v.Detail)
		}
	}
	for i, r := range mr.PerProcess {
		if r.NumCPUs != 2 {
			t.Errorf("proc %d: partition width %d, want 2", i, r.NumCPUs)
		}
		if r.Total(func(s *CPUStats) uint64 { return s.ContextSwitches }) != 0 {
			t.Errorf("proc %d: context switches in partition mode", i)
		}
	}
	if mr.Total.WallCycles < mr.PerProcess[0].WallCycles ||
		mr.Total.WallCycles < mr.PerProcess[1].WallCycles {
		t.Error("machine wall below a partition's finish time")
	}
}

func TestMultiprocessDeterministic(t *testing.T) {
	for _, sched := range []SchedOptions{
		{Policy: SchedTimeSlice, Quantum: 40_000},
		{Policy: SchedPartition},
	} {
		a := multiRun(t, Options{Config: smallConfig(4)}, twoProcs(true), sched)
		b := multiRun(t, Options{Config: smallConfig(4)}, twoProcs(true), sched)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: identical co-scheduled runs diverged", sched.Policy)
		}
	}
}

func TestTimeSliceFlushesOnSwitch(t *testing.T) {
	// A solo run of the same program must take fewer TLB misses than a
	// co-scheduled one: every context switch flushes the TLB, forcing
	// refills the solo run never pays.
	opts := Options{Config: smallConfig(2)}
	solo := multiRun(t, opts, []ProcessOptions{
		{Source: ProgramSource(makeChunkedProgram(8, 16, 0, 6)), Policy: vm.PageColoring{Colors: 16}},
	}, SchedOptions{Policy: SchedTimeSlice, Quantum: 30_000})
	co := multiRun(t, Options{Config: smallConfig(2)}, twoProcs(false),
		SchedOptions{Policy: SchedTimeSlice, Quantum: 30_000})
	soloTLB := solo.PerProcess[0].Total(func(s *CPUStats) uint64 { return s.TLBMisses })
	coTLB := co.PerProcess[0].Total(func(s *CPUStats) uint64 { return s.TLBMisses })
	if coTLB <= soloTLB {
		t.Errorf("co-scheduled TLB misses %d not above solo %d despite switch flushes", coTLB, soloTLB)
	}
}

func TestProcessExitReturnsFrames(t *testing.T) {
	procs := twoProcs(false)
	for _, po := range procs {
		if err := compilerLayout(progOf(po), smallConfig(4)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := New(Options{Config: smallConfig(4)})
	if err != nil {
		t.Fatal(err)
	}
	free := m.alloc.FreeFrames()
	if _, err := m.RunProcesses(procs, SchedOptions{Policy: SchedTimeSlice}); err != nil {
		t.Fatal(err)
	}
	if got := m.alloc.FreeFrames(); got != free {
		t.Errorf("free frames after both exits = %d, want %d (frames leaked)", got, free)
	}
}

func TestPartitionRejectsIndivisibleCPUs(t *testing.T) {
	procs := []ProcessOptions{
		{Source: ProgramSource(makeProgram(4, 8, 0))},
		{Source: ProgramSource(makeProgram(4, 8, 0))},
		{Source: ProgramSource(makeProgram(4, 8, 0))},
	}
	for _, po := range procs {
		if err := compilerLayout(progOf(po), smallConfig(4)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := New(Options{Config: smallConfig(4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunProcesses(procs, SchedOptions{Policy: SchedPartition}); err == nil {
		t.Error("3 processes on 4 CPUs must be rejected by the partition scheduler")
	}
}

// TestMultiprocessRejectsRecoloring: dynamic recoloring and a touch
// order act on the whole machine, so a mix rejects a process carrying
// either.
func TestMultiprocessRejectsRecoloring(t *testing.T) {
	rp := vm.DefaultRecolorPolicy()
	for _, tc := range []struct {
		name string
		set  func(*ProcessOptions)
		want string
	}{
		{"recoloring", func(po *ProcessOptions) { po.Recolor = &rp }, "dynamic recoloring"},
		{"touch order", func(po *ProcessOptions) { po.TouchOrder = []uint64{0} }, "touch-order"},
	} {
		procs := twoProcs(false)
		for _, po := range procs {
			if err := compilerLayout(progOf(po), smallConfig(4)); err != nil {
				t.Fatal(err)
			}
		}
		tc.set(&procs[1])
		m, err := New(Options{Config: smallConfig(4)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunProcesses(procs, SchedOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// progOf returns the program behind a process built from ProgramSource.
func progOf(po ProcessOptions) *ir.Program { return po.Source.(*programSource).prog }
