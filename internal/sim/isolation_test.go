package sim

import (
	"reflect"
	"testing"
)

func crossDomainTotal(r *Result) uint64 {
	return r.Total(func(s *CPUStats) uint64 { return s.CrossDomainConflicts })
}

func TestIsolatedRunZeroCrossDomain(t *testing.T) {
	sched := SchedOptions{Policy: SchedTimeSlice, Quantum: 50_000}

	shared := multiRun(t, Options{Config: smallConfig(4)}, twoProcs(true), sched)
	if shared.Total.Isolated {
		t.Error("unpartitioned run reports Isolated")
	}
	if crossDomainTotal(shared.Total) == 0 {
		t.Error("conflicting co-runners produced no cross-domain evictions unpartitioned; the counter is not firing")
	}

	iso := multiRun(t, Options{Config: smallConfig(4), Isolate: true}, twoProcs(true), sched)
	if vs := iso.Audit(); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("audit: %s: %s", v.Check, v.Detail)
		}
	}
	if !iso.Total.Isolated {
		t.Error("partitioned run does not report Isolated")
	}
	if got := crossDomainTotal(iso.Total); got != 0 {
		t.Errorf("%d cross-domain evictions on a partitioned run, want exactly 0", got)
	}
	for i, r := range iso.PerProcess {
		if !r.Isolated {
			t.Errorf("proc %d does not report Isolated", i+1)
		}
		if got := crossDomainTotal(r); got != 0 {
			t.Errorf("proc %d: %d cross-domain evictions, want 0", i+1, got)
		}
	}
}

func TestIsolatedRunDeterministic(t *testing.T) {
	sched := SchedOptions{Policy: SchedTimeSlice, Quantum: 40_000}
	a := multiRun(t, Options{Config: smallConfig(4), Isolate: true}, twoProcs(true), sched)
	b := multiRun(t, Options{Config: smallConfig(4), Isolate: true}, twoProcs(true), sched)
	if !reflect.DeepEqual(a, b) {
		t.Error("identical isolated runs diverged")
	}
}

func TestResolveDomainsGrouping(t *testing.T) {
	// Labels {7, 0, 7, 3}: pid 1 and 3 share a domain (first appearance
	// renumbers 7 -> 1), pid 2 gets its own, pid 4's label 3 renumbers
	// after pid 2's implicit domain.
	procs := []ProcessOptions{{Domain: 7}, {}, {Domain: 7}, {Domain: 3}}
	got := resolveDomains(procs)
	if want := []int{1, 2, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("resolveDomains = %v, want %v", got, want)
	}
}

func TestRunProcessesRejectsNegativeDomain(t *testing.T) {
	m, err := New(Options{Config: smallConfig(4)})
	if err != nil {
		t.Fatal(err)
	}
	procs := twoProcs(false)
	procs[1].Domain = -1
	if _, err := m.RunProcesses(procs, SchedOptions{Policy: SchedTimeSlice}); err == nil {
		t.Error("negative Domain accepted")
	}
}

// TestAuditCatchesCrossDomainLeak fabricates the two invariant-12
// violations on an otherwise-clean result: a nonzero machine-wide
// cross-domain total on an Isolated result (a frame escaped its
// partition), and a per-CPU count exceeding the data misses that could
// have carried it.
func TestAuditCatchesCrossDomainLeak(t *testing.T) {
	mr := multiRun(t, Options{Config: smallConfig(4), Isolate: true}, twoProcs(true),
		SchedOptions{Policy: SchedTimeSlice, Quantum: 50_000})
	hasCheck := func(r *Result, check string) bool {
		for _, v := range r.Audit() {
			if v.Check == check {
				return true
			}
		}
		return false
	}

	leaked := *mr.Total
	leaked.PerCPU = append([]CPUStats(nil), mr.Total.PerCPU...)
	leaked.PerCPU[0].CrossDomainConflicts = 1
	if !hasCheck(&leaked, "cross-domain-isolation") {
		t.Error("audit missed a cross-domain eviction on an Isolated result")
	}

	over := *mr.Total
	over.Isolated = false
	over.PerCPU = append([]CPUStats(nil), mr.Total.PerCPU...)
	over.PerCPU[0].CrossDomainConflicts = over.PerCPU[0].L2Misses + 1
	if !hasCheck(&over, "cross-domain-isolation") {
		t.Error("audit missed a cross-domain count exceeding the CPU's data misses")
	}
}

// TestCrossDomainAfterExit pins the cross-domain count across a
// co-runner's exit. A short process (8 pages per array) and a long one
// (16 pages per array, conflicting in the same colors) are time-sliced.
// An exited process owns no frames, so the survivor's evictions of its
// leftover LLC lines count 0, and a frame the survivor faults back in
// is the survivor's own. In the first mix the short process finishes in
// its first window, so every eviction the survivor makes comes after
// the exit and the whole run counts 0; in the second it runs two
// windows, and only the evictions made while both were live count.
func TestCrossDomainAfterExit(t *testing.T) {
	for _, tc := range []struct {
		shortChunks int
		switches    uint64
		want        [3]uint64 // short process, long process, total
	}{
		{1, 4, [3]uint64{0, 0, 0}},
		{2, 12, [3]uint64{129, 129, 258}},
	} {
		procs := []ProcessOptions{
			{Source: ProgramSource(makeChunkedProgram(8, 16, 8, tc.shortChunks))},
			{Source: ProgramSource(makeChunkedProgram(16, 16, 8, 6))},
		}
		mr := multiRun(t, Options{Config: smallConfig(4)}, procs, SchedOptions{Policy: SchedTimeSlice, Quantum: 20_000})
		if sw := mr.Total.Total(func(s *CPUStats) uint64 { return s.ContextSwitches }); sw != tc.switches {
			t.Fatalf("short process of %d chunks: %d context switches, want %d", tc.shortChunks, sw, tc.switches)
		}
		got := [3]uint64{crossDomainTotal(mr.PerProcess[0]), crossDomainTotal(mr.PerProcess[1]), crossDomainTotal(mr.Total)}
		if got != tc.want {
			t.Errorf("short process of %d chunks: cross-domain conflicts (short, long, total) = %v, want %v", tc.shortChunks, got, tc.want)
		}
	}
}
