package harness

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestAuditMatrix runs a bounded workload x variant seed matrix and
// checks the conservation invariants (cycles, misses, bus occupancy)
// hold on every cell. Scale 32 keeps each simulation small; the shared
// scheduler keeps program builds to one per workload, and warming the
// whole matrix first runs the cells on every worker before the checks
// read them back in order.
func TestAuditMatrix(t *testing.T) {
	names := workloads.Names()
	variants := Variants()
	cpuCounts := []int{1, 4}
	if testing.Short() {
		names = []string{"tomcatv", "fpppp"}
		cpuCounts = []int{4}
	}

	var specs []Spec
	for _, w := range names {
		for _, v := range variants {
			for _, n := range cpuCounts {
				specs = append(specs, Spec{Workload: w, Scale: 32, CPUs: n, Variant: v})
			}
		}
	}
	sc := NewScheduler(0)
	sc.Warm(specs)
	for _, spec := range specs {
		res, err := sc.Run(spec)
		if err != nil {
			t.Fatalf("%s/%s on %d cpus: %v", spec.Workload, spec.Variant, spec.CPUs, err)
		}
		if vs := res.Audit(); len(vs) != 0 {
			t.Errorf("%s/%s on %d cpus: %v", spec.Workload, spec.Variant, spec.CPUs, obs.AuditError(vs))
		}
	}
}

// TestSchedulerBypassesMemoForInstrumentedSpecs: an instrumented spec
// must fill its collector even when an identical bare spec was already
// memoized, and the instrumented result must equal the memoized one.
func TestSchedulerBypassesMemoForInstrumentedSpecs(t *testing.T) {
	sc := NewScheduler(0)
	spec := Spec{Workload: "fpppp", Scale: 32, CPUs: 2, Variant: PageColoring}
	bare, err := sc.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	runs := sc.Runs()

	spec.Obs = obs.NewCollector(obs.Options{})
	observed, err := sc.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Runs() != runs {
		t.Errorf("instrumented run entered the memo cache: %d -> %d entries", runs, sc.Runs())
	}
	total := uint64(0)
	for _, cc := range spec.Obs.PerColor() {
		total += cc.Total()
	}
	if total == 0 {
		t.Error("collector not filled: memoized result substituted for an instrumented run")
	}
	if bare.WallCycles != observed.WallCycles || bare.MCPI() != observed.MCPI() {
		t.Errorf("instrumented result diverged: wall %d vs %d", bare.WallCycles, observed.WallCycles)
	}
}

// TestConflictAttributionTomcatv is the Figure-4 acceptance check: under
// naive page coloring the tomcatv stencil takes heavy conflict misses,
// and compiler-directed coloring eliminates most of them. The per-color
// attribution must both see the conflicts and agree with the Result's
// own counters.
func TestConflictAttributionTomcatv(t *testing.T) {
	conflicts := func(v Variant) (uint64, *sim.Result) {
		col := obs.NewCollector(obs.Options{})
		res, err := Run(Spec{Workload: "tomcatv", CPUs: 8, Variant: v, Obs: col})
		if err != nil {
			t.Fatal(err)
		}
		var n uint64
		for _, cc := range col.PerColor() {
			n += cc[obs.Conflict]
		}
		// Attribution counts each simulated miss once; the Result weights
		// phases by their occurrence count. tomcatv is a single phase, so
		// the ratio must be exactly that weight.
		want := res.Total(func(s *sim.CPUStats) uint64 { return s.ConflictMisses })
		switch {
		case n == 0 && want != 0:
			t.Errorf("%s: result has %d conflict misses but attribution saw none", v, want)
		case n != 0 && want%n != 0:
			t.Errorf("%s: attributed %d conflict misses, result has %d (not an occurrence multiple)", v, n, want)
		}
		return n, res
	}

	pc, _ := conflicts(PageColoring)
	cdpc, _ := conflicts(CDPC)
	if pc == 0 {
		t.Fatal("page coloring shows no conflict misses on tomcatv")
	}
	if cdpc*2 >= pc {
		t.Errorf("CDPC should eliminate most conflicts: page-coloring %d, cdpc %d", pc, cdpc)
	}
}
