package harness

import (
	"context"
	"errors"
	"testing"

	"repro/internal/workloads"
)

// checkCase is one spec Check must judge: want is the rejected field
// path and rule class, or the zero value for a spec Check accepts.
type checkCase struct {
	name string
	spec Spec
	want SpecError
}

// checkCases has one rejecting row per rule Check owns, and accepted
// shapes next to the rules they border. The rows marked "drift" were
// accepted (or rejected only after compiling) before Check existed.
func checkCases(t *testing.T) []checkCase {
	w := NewTraceWorkload("irregular", loadBundledTrace(t))
	mix := func(s Spec, co ...CoRunner) Spec {
		s.Workload, s.Scale = "tomcatv", 64
		if s.CPUs == 0 {
			s.CPUs = 2
		}
		s.CoRunners = co
		return s
	}
	solo := func(s Spec) Spec { return mix(s) }
	return []checkCase{
		// Names.
		{"drift: unknown machine", solo(Spec{Machine: "cray"}), SpecError{Field: "Machine", Rule: RuleName}},
		{"unknown variant", solo(Spec{Variant: "bogus"}), SpecError{Field: "Variant", Rule: RuleName}},
		{"unknown topology", solo(Spec{Topology: "mesh-9"}), SpecError{Field: "Topology", Rule: RuleName}},
		{"unknown discipline", mix(Spec{Sched: "gang"}, CoRunner{}), SpecError{Field: "Sched", Rule: RuleName}},
		{"drift: unknown discipline without co-runners", solo(Spec{Sched: "gang"}), SpecError{Field: "Sched", Rule: RuleName}},
		{"drift: unknown co-runner variant", mix(Spec{}, CoRunner{Variant: "round-robin"}), SpecError{Field: "CoRunners[0].Variant", Rule: RuleName}},
		{"unknown co-runner workload", mix(Spec{}, CoRunner{}, CoRunner{Workload: "linpack"}), SpecError{Field: "CoRunners[1].Workload", Rule: RuleName}},
		{"known names", solo(Spec{Machine: AlphaMachine, Variant: CDPC, Topology: "sliced-llc4"}), SpecError{}},

		// Traces.
		{"trace with co-runners", Spec{Trace: w, CoRunners: []CoRunner{{Workload: "tomcatv"}}}, SpecError{Field: "CoRunners", Rule: RuleTrace}},
		{"trace with prefetch", Spec{Trace: w, Prefetch: true}, SpecError{Field: "Prefetch", Rule: RuleTrace}},
		{"trace with a compiler variant", Spec{Trace: w, Variant: CDPCTouch}, SpecError{Field: "Variant", Rule: RuleTrace}},
		{"trace wider than the machine", Spec{Trace: w, CPUs: 1}, SpecError{Field: "CPUs", Rule: RuleTrace}},
		{"trace with cdpc", Spec{Trace: w, Variant: CDPC}, SpecError{}},

		// Co-scheduling.
		{"sched without co-runners", solo(Spec{Sched: SchedTimeSlice}), SpecError{Field: "Sched", Rule: RuleCoSchedule}},
		{"drift: quantum without co-runners", solo(Spec{Quantum: 1000}), SpecError{Field: "Sched", Rule: RuleCoSchedule}},
		{"indivisible partition", mix(Spec{CPUs: 4, Sched: SchedPartition}, CoRunner{}, CoRunner{}), SpecError{Field: "Sched", Rule: RuleCoSchedule}},
		{"partition wider than the machine", mix(Spec{CPUs: 1, Sched: SchedPartition}, CoRunner{}), SpecError{Field: "Sched", Rule: RuleCoSchedule}},
		{"machine-wide primary variant", mix(Spec{Variant: DynamicRecoloring}, CoRunner{Variant: PageColoring}), SpecError{Field: "Variant", Rule: RuleCoSchedule}},
		{"machine-wide co-runner variant", mix(Spec{}, CoRunner{Variant: ColoringTouch}), SpecError{Field: "CoRunners[0].Variant", Rule: RuleCoSchedule}},
		{"even partition", mix(Spec{CPUs: 4, Sched: SchedPartition, Quantum: 1000}, CoRunner{Workload: "swim", Variant: FirstTouch}), SpecError{}},

		// Isolation.
		{"drift: isolate without co-runners", solo(Spec{Isolate: true}), SpecError{Field: "Isolate", Rule: RuleIsolation}},
		{"drift: domain without co-runners", solo(Spec{Domain: 1}), SpecError{Field: "Isolate", Rule: RuleIsolation}},
		{"domain without isolate", mix(Spec{Domain: 1}, CoRunner{}), SpecError{Field: "Domain", Rule: RuleIsolation}},
		{"co-runner domain without isolate", mix(Spec{}, CoRunner{Domain: 1}), SpecError{Field: "CoRunners[0].Domain", Rule: RuleIsolation}},
		{"drift: domain out of range", mix(Spec{Isolate: true, Domain: 9}, CoRunner{}), SpecError{Field: "Domain", Rule: RuleIsolation}},
		{"negative co-runner domain", mix(Spec{Isolate: true}, CoRunner{Domain: -1}), SpecError{Field: "CoRunners[0].Domain", Rule: RuleIsolation}},
		{"shared domain", mix(Spec{Isolate: true, Domain: 2}, CoRunner{Domain: 2}), SpecError{}},
	}
}

// specError unwraps err into the SpecError Check returns, or nil.
func specError(err error) *SpecError {
	var se *SpecError
	if errors.As(err, &se) {
		return se
	}
	return nil
}

func TestCheck(t *testing.T) {
	for _, tc := range checkCases(t) {
		err := Check(tc.spec)
		if tc.want == (SpecError{}) {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		se := specError(err)
		if se == nil {
			t.Errorf("%s: got %v, want a SpecError on %s", tc.name, err, tc.want.Field)
			continue
		}
		if se.Field != tc.want.Field || se.Rule != tc.want.Rule {
			t.Errorf("%s: rejected %s under rule %d, want %s under rule %d (%v)",
				tc.name, se.Field, se.Rule, tc.want.Field, tc.want.Rule, err)
		}
	}
}

// TestCheckParity requires every entry point to reject each bad spec
// with Check's own error, before anything compiles: the scheduler's
// program cache stays empty, and it reports no memoized result. The
// scheduler has first memoized the plain solo spec, whose key the bad
// solo specs share.
func TestCheckParity(t *testing.T) {
	sc := NewScheduler(1)
	plain := Spec{Workload: "tomcatv", Scale: 64, CPUs: 2}
	if _, err := sc.Run(plain); err != nil {
		t.Fatal(err)
	}
	sc.mu.Lock()
	clear(sc.progs)
	sc.mu.Unlock()
	meta, err := workloads.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range checkCases(t) {
		if tc.want == (SpecError{}) {
			continue
		}
		entries := []struct {
			name string
			run  func() error
		}{
			{"Run", func() error { _, err := Run(tc.spec); return err }},
			{"Scheduler.RunCtx", func() error { _, err := sc.RunCtx(context.Background(), tc.spec); return err }},
			{"Prepare", func() error { _, _, _, err := Prepare(tc.spec); return err }},
			{"RunProgram", func() error { _, err := RunProgram(meta.Build(64), tc.spec); return err }},
		}
		for _, e := range entries {
			se := specError(e.run())
			if se == nil || se.Field != tc.want.Field || se.Rule != tc.want.Rule {
				t.Errorf("%s: %s did not reject on %s: %v", tc.name, e.name, tc.want.Field, se)
			}
		}
		if sc.HasResult(tc.spec) {
			t.Errorf("%s: the scheduler reports a memoized result for a rejected spec", tc.name)
		}
		sc.mu.Lock()
		compiled := len(sc.progs)
		sc.mu.Unlock()
		if compiled != 0 {
			t.Fatalf("%s: the scheduler compiled %d programs for a rejected spec", tc.name, compiled)
		}
	}
}
