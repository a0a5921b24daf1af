package sim

import (
	"math/rand"
	"testing"

	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/vm"
)

// randomProgram builds a bounded random program: 1-4 arrays, 1-2 phases,
// 1-3 nests each with random parallelism, offsets, strides and work.
func randomProgram(rng *rand.Rand) *ir.Program {
	narr := 1 + rng.Intn(4)
	arrays := make([]*ir.Array, narr)
	for i := range arrays {
		arrays[i] = &ir.Array{
			Name:     string(rune('a' + i)),
			ElemSize: 8,
			Elems:    512 * (1 + rng.Intn(16)), // 1-16 pages
		}
	}
	prog := &ir.Program{Name: "random", Arrays: arrays}
	nphases := 1 + rng.Intn(2)
	for p := 0; p < nphases; p++ {
		ph := &ir.Phase{Name: "ph", Occurrences: 1 + rng.Intn(5)}
		nnests := 1 + rng.Intn(3)
		for n := 0; n < nnests; n++ {
			a := arrays[rng.Intn(narr)]
			b := arrays[rng.Intn(narr)]
			iters := []int{4, 8, 16, 33}[rng.Intn(4)]
			unit := a.Elems / iters
			if unit < 1 {
				unit = 1
			}
			inner := 1 + rng.Intn(unit)
			nest := &ir.Nest{
				Name:       "n",
				Parallel:   rng.Intn(4) != 0,
				Iterations: iters,
				InnerIters: inner,
				Accesses: []ir.Access{
					{Array: a, Kind: ir.Load, OuterStride: unit, InnerStride: 1 + rng.Intn(3),
						Offset: rng.Intn(5) - 2, Wrap: rng.Intn(3) == 0},
					{Array: b, Kind: ir.Store, OuterStride: b.Elems / iters, InnerStride: 1},
				},
				WorkPerIter: rng.Intn(8),
				Tiled:       rng.Intn(4) == 0,
				Sched:       ir.Schedule{Kind: ir.PartitionKind(rng.Intn(2)), Reverse: rng.Intn(2) == 0},
			}
			if nest.Parallel && rng.Intn(5) == 0 {
				nest.Suppressed = true
			}
			ph.Nests = append(ph.Nests, nest)
		}
		prog.Phases = append(prog.Phases, ph)
	}
	return prog
}

// TestRandomProgramsInvariants fuzzes the whole pipeline: any valid
// random program, on any policy and CPU count, must simulate without
// error, book every cycle (clock == TotalCycles per CPU), and produce
// identical results when run twice (determinism).
func TestRandomProgramsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(20260704))
	for trial := 0; trial < 40; trial++ {
		prog := randomProgram(rng)
		if err := prog.Validate(); err != nil {
			t.Fatalf("trial %d: random program invalid: %v", trial, err)
		}
		ncpu := []int{1, 2, 4, 8}[rng.Intn(4)]
		cfg := smallConfig(ncpu)
		if err := compilerLayout(prog, cfg); err != nil {
			t.Fatalf("trial %d: layout: %v", trial, err)
		}
		if rng.Intn(2) == 0 {
			compiler.InsertPrefetches(prog, compiler.DefaultPrefetch())
		}

		// Determinism requires identical options: fix SkipWarmup first.
		skip := rng.Intn(2) == 0
		mkRun := func() (*Result, *Machine) {
			m, err := New(Options{Config: cfg, SkipWarmup: skip})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			res, err := m.Run(ProcessOptions{Source: ProgramSource(prog), Policy: vm.PageColoring{Colors: cfg.Colors()}})
			if err != nil {
				t.Fatalf("trial %d: run: %v", trial, err)
			}
			return res, m
		}
		r1, m1 := mkRun()
		r2, _ := mkRun()

		// Cycle accounting: every cycle booked exactly once.
		for _, c := range m1.cpus {
			if c.clock != c.stats.TotalCycles() {
				t.Fatalf("trial %d: cpu %d clock %d != booked %d", trial, c.id, c.clock, c.stats.TotalCycles())
			}
		}
		// Conservation invariants (cycles, misses, bus occupancy) must
		// hold for every random program on every policy.
		if vs := r1.Audit(); len(vs) != 0 {
			t.Fatalf("trial %d: audit violations: %v", trial, vs)
		}
		// Determinism.
		if r1.WallCycles != r2.WallCycles {
			t.Fatalf("trial %d: nondeterministic wall: %d vs %d", trial, r1.WallCycles, r2.WallCycles)
		}
		for i := range r1.PerCPU {
			if r1.PerCPU[i] != r2.PerCPU[i] {
				t.Fatalf("trial %d: cpu %d stats differ between identical runs", trial, i)
			}
		}
		// Conservation: instructions must be positive and identical
		// across policies for the same program (policies change timing,
		// never the instruction stream) — checked against a bin-hopping
		// run of the same program.
		mBH, err := New(Options{Config: cfg, SkipWarmup: skip})
		if err != nil {
			t.Fatal(err)
		}
		rBH, err := mBH.Run(ProcessOptions{Source: ProgramSource(prog), Policy: &vm.BinHopping{Colors: cfg.Colors()}})
		if err != nil {
			t.Fatalf("trial %d: binhop run: %v", trial, err)
		}
		i1 := r1.Total(func(s *CPUStats) uint64 { return s.Instructions })
		i2 := rBH.Total(func(s *CPUStats) uint64 { return s.Instructions })
		if i1 == 0 || i1 != i2 {
			t.Fatalf("trial %d: instruction counts differ across policies: %d vs %d", trial, i1, i2)
		}
		if vs := rBH.Audit(); len(vs) != 0 {
			t.Fatalf("trial %d: bin-hopping audit violations: %v", trial, vs)
		}
	}
}
