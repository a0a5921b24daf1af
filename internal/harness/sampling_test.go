package harness

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/workloads"
)

// TestSampleConflict is the table of the one sampling rule: each shape
// that needs the full reference stream has a conflict, the placement
// and compiler variants have none, and withDefaults clears Sampled
// exactly on the conflicting specs.
func TestSampleConflict(t *testing.T) {
	base := Spec{Workload: "tomcatv", CPUs: 2, Sampled: true}
	with := func(mut func(*Spec)) Spec {
		s := base
		mut(&s)
		return s
	}
	cases := []struct {
		name     string
		spec     Spec
		conflict bool
	}{
		{"obs", with(func(s *Spec) { s.Obs = obs.NewCollector(obs.Options{}) }), true},
		{"co-runner", with(func(s *Spec) { s.CoRunners = []CoRunner{{}} }), true},
		{"dynamic recoloring", with(func(s *Spec) { s.Variant = DynamicRecoloring }), true},
		{"trace", with(func(s *Spec) { s.Workload = ""; s.Trace = NewTraceWorkload("irregular", loadBundledTrace(t)) }), true},
		{"coloring", with(func(s *Spec) { s.Variant = PageColoring }), false},
		{"cdpc", with(func(s *Spec) { s.Variant = CDPC }), false},
		{"prefetch", with(func(s *Spec) { s.Prefetch = true }), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := SampleConflict(tc.spec)
			if (err != nil) != tc.conflict {
				t.Fatalf("SampleConflict = %v, want conflict %v", err, tc.conflict)
			}
			if got := tc.spec.withDefaults().Sampled; got != !tc.conflict {
				t.Errorf("withDefaults kept Sampled = %v, want %v", got, !tc.conflict)
			}
		})
	}
}

// TestSampledFidelity is the tentpole acceptance gate: across all ten
// workloads, phase-sampled simulation must land within the 2% MCPI
// error budget of full-fidelity simulation, pass the full audit, and
// carry honest sampling accounting. CPUs=2 keeps the parallel
// machinery (fork, barriers, coherence) in the sampled path while
// leaving per-CPU spans long enough for windows to engage.
func TestSampledFidelity(t *testing.T) {
	for _, w := range workloads.Names() {
		w := w
		t.Run(w, func(t *testing.T) {
			full, err := Run(Spec{Workload: w, CPUs: 2})
			if err != nil {
				t.Fatalf("full run: %v", err)
			}
			sam, err := Run(Spec{Workload: w, CPUs: 2, Sampled: true})
			if err != nil {
				t.Fatalf("sampled run: %v", err)
			}
			if sam.Fidelity != "sampled" {
				t.Fatalf("fidelity = %q, want sampled", sam.Fidelity)
			}
			if vs := sam.Audit(); vs != nil {
				t.Fatalf("sampled result fails audit: %v", vs)
			}
			if sam.SampledWindows == 0 || sam.RepresentedIters == 0 || sam.WarmupRefs == 0 {
				t.Fatalf("sampling counters not recorded: windows=%d represented=%d warm=%d",
					sam.SampledWindows, sam.RepresentedIters, sam.WarmupRefs)
			}
			fm, sm := full.MCPI(), sam.MCPI()
			relErr := (sm - fm) / fm
			if relErr < 0 {
				relErr = -relErr
			}
			t.Logf("%s: full MCPI %.4f, sampled MCPI %.4f, err %.2f%%, faults %d/%d, windows %d, iters %d/%d",
				w, fm, sm, 100*relErr, full.PageFaults, sam.PageFaults,
				sam.SampledWindows, sam.SampledIters, sam.RepresentedIters)
			if relErr > 0.02 {
				t.Errorf("%s: sampled MCPI %.4f vs full %.4f: error %.2f%% exceeds 2%% budget",
					w, sm, fm, 100*relErr)
			}
			if sam.PageFaults != full.PageFaults {
				t.Logf("note: fault counts differ (full %d, sampled %d)", full.PageFaults, sam.PageFaults)
			}
		})
	}
}
