package sim

import (
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
)

// lateFaultProgram sweeps array b in `early` one-nest phases, then
// array c once, so c's pages fault only in the final phase.
func lateFaultProgram(pages, early int) *ir.Program {
	elems := pages * 4096 / 8
	const iters = 16
	unit := elems / iters
	b := &ir.Array{Name: "b", ElemSize: 8, Elems: elems}
	c := &ir.Array{Name: "c", ElemSize: 8, Elems: elems}
	sweep := func(name string, arr *ir.Array) *ir.Phase {
		return &ir.Phase{Name: name, Occurrences: 1, Nests: []*ir.Nest{{
			Name: name, Parallel: true, Iterations: iters, InnerIters: unit,
			Accesses: []ir.Access{
				{Array: arr, Kind: ir.Load, OuterStride: unit, InnerStride: 1},
				{Array: arr, Kind: ir.Store, OuterStride: unit, InnerStride: 1},
			},
			WorkPerIter: 2, Sched: ir.Schedule{Kind: ir.Even},
		}}}
	}
	prog := &ir.Program{Name: "late", Arrays: []*ir.Array{b, c}}
	for i := 0; i < early; i++ {
		prog.Phases = append(prog.Phases, sweep("early", b))
	}
	prog.Phases = append(prog.Phases, sweep("late", c))
	return prog
}

// TestExitReuseReachesResult pins the path by which a process's exit
// reaches a co-runner's Result. Under first-touch a fault takes the
// lowest-numbered free frame, and an exited process returns its frames
// to the pools highest first, so each color's lowest freed frame heads
// its pool again. A short process (48 pages, three frames per color)
// exits while the survivor still sweeps b; the survivor's late phase
// then faults array c into those freed frames. The survivor's color
// occupancy and its L2 misses depend on the order the frames came back,
// so a release order that puts each color's highest freed frame first
// moves both.
func TestExitReuseReachesResult(t *testing.T) {
	procs := []ProcessOptions{
		{Source: ProgramSource(makeChunkedProgram(24, 16, 0, 1)), Policy: &vm.FirstTouch{}},
		{Source: ProgramSource(lateFaultProgram(16, 6)), Policy: &vm.FirstTouch{}},
	}
	cfg := smallConfig(4)
	for _, po := range procs {
		if err := compilerLayout(progOf(po), cfg); err != nil {
			t.Fatal(err)
		}
	}
	m, err := New(Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	mr, err := m.RunProcesses(procs, SchedOptions{Policy: SchedTimeSlice, Quantum: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	occ := m.procs[1].as.ColorOccupancy()
	misses := mr.PerProcess[1].Total(func(s *CPUStats) uint64 { return s.L2Misses })
	wantOcc := []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}
	const wantMisses = 1024
	if !slices.Equal(occ, wantOcc) || misses != wantMisses {
		t.Errorf("survivor: color occupancy %v, L2 misses %d; want %v, %d", occ, misses, wantOcc, wantMisses)
	}
}
