package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/vm"
)

// TestGoldenEnginePaths extends TestGoldenDefaultTopology's byte-identical
// guard to every execution path other than the 4-CPU solo full-fidelity
// run: dynamic recoloring, a 16-CPU solo run, the touch-order variants
// and bin hopping, phase-sampled runs, the three multiprocess shapes
// (time-sliced, partitioned, color-isolated), an external trace replay, and the raw
// per-occurrence samples of the phase-validation pass. Each entry uses
// the same fingerprint format; a multiprocess run records every process
// and the machine total.
//
// Regenerate with WRITE_GOLDEN=1 go test -run TestGoldenEnginePaths
// ./internal/harness — only after deliberately changing simulator
// behavior.
func TestGoldenEnginePaths(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep runs a dozen simulations; skipped in -short")
	}
	path := filepath.Join("testdata", "golden_paths.json")
	got := map[string]string{}

	for _, w := range []string{"tomcatv", "swim"} {
		res, err := Run(Spec{Workload: w, CPUs: 4, Scale: 32, Sampled: true})
		if err != nil {
			t.Fatalf("%s/sampled: %v", w, err)
		}
		if res.Fidelity != sim.FidelitySampled {
			t.Fatalf("%s/sampled ran at fidelity %q", w, res.Fidelity)
		}
		got[w+"/sampled"] = fingerprint(res)
	}

	// Dynamic recoloring is the one path where a step advances other
	// CPUs' clocks (the TLB-shootdown interrupt), and a 16-CPU solo run
	// is the widest interleave the event loop sees in the experiments.
	// clustered-l3 is the only topology with intermediate levels and an
	// LLC unit shared by several CPUs, sliced-llc4 the only sliced LLC,
	// and Prefetch the only path through the pending-prefetch map. The
	// two touch-order variants are the only runs that fault a page list
	// serially on the master before execution (§5.3's Digital UNIX
	// emulation), over bin hopping, which runs alone as well.
	solos := []struct {
		name string
		spec Spec
	}{
		{"tomcatv/dynamic-recoloring/8cpu", Spec{Workload: "tomcatv", CPUs: 8, Scale: 32, Variant: DynamicRecoloring}},
		{"tomcatv/page-coloring/16cpu", Spec{Workload: "tomcatv", CPUs: 16, Scale: 32, Variant: PageColoring}},
		{"tomcatv/cdpc/clustered-l3/8cpu", Spec{Workload: "tomcatv", CPUs: 8, Scale: 32, Variant: CDPC, Topology: "clustered-l3"}},
		{"swim/page-coloring/sliced-llc4/4cpu", Spec{Workload: "swim", CPUs: 4, Scale: 32, Variant: PageColoring, Topology: "sliced-llc4"}},
		{"tomcatv/cdpc/prefetch/4cpu", Spec{Workload: "tomcatv", CPUs: 4, Scale: 32, Variant: CDPC, Prefetch: true}},
		{"tomcatv/cdpc-touch/alpha/8cpu", Spec{Workload: "tomcatv", CPUs: 8, Scale: 32, Machine: AlphaMachine, Variant: CDPCTouch}},
		{"tomcatv/coloring-touch/alpha/8cpu", Spec{Workload: "tomcatv", CPUs: 8, Scale: 32, Machine: AlphaMachine, Variant: ColoringTouch}},
		{"tomcatv/bin-hopping/8cpu", Spec{Workload: "tomcatv", CPUs: 8, Scale: 32, Variant: BinHopping}},
	}
	for _, so := range solos {
		res, err := Run(so.spec)
		if err != nil {
			t.Fatalf("%s: %v", so.name, err)
		}
		if so.spec.Variant == DynamicRecoloring && res.Total(func(s *sim.CPUStats) uint64 { return s.Recolorings }) == 0 {
			t.Fatalf("%s: no recoloring happened, so the shootdown path is not covered", so.name)
		}
		if so.spec.Prefetch && res.Total(func(s *sim.CPUStats) uint64 { return s.PrefetchedHits }) == 0 {
			t.Fatalf("%s: no demand hit consumed a prefetch, so the pending-prefetch path is not covered", so.name)
		}
		got[so.name] = fingerprint(res)
	}

	mixes := []struct {
		name string
		spec Spec
	}{
		{"tomcatv+swim/timeslice", Spec{Workload: "tomcatv", CPUs: 4, Scale: 32,
			CoRunners: []CoRunner{{Workload: "swim"}}, Sched: SchedTimeSlice}},
		{"tomcatv+swim/partition/cdpc", Spec{Workload: "tomcatv", CPUs: 4, Scale: 32, Variant: CDPC,
			CoRunners: []CoRunner{{Workload: "swim"}}, Sched: SchedPartition}},
		{"tomcatv+tomcatv/isolated/cdpc", Spec{Workload: "tomcatv", CPUs: 4, Scale: 32, Variant: CDPC,
			CoRunners: []CoRunner{{}}, Isolate: true}},
	}
	for _, mx := range mixes {
		mr, err := RunMulti(mx.spec)
		if err != nil {
			t.Fatalf("%s: %v", mx.name, err)
		}
		for i, r := range mr.PerProcess {
			got[fmt.Sprintf("%s/proc%d", mx.name, i+1)] = fingerprint(r)
		}
		got[mx.name+"/total"] = fingerprint(mr.Total)
	}

	tw := NewTraceWorkload("irregular", loadBundledTrace(t))
	for _, v := range []Variant{FirstTouch, CDPC} {
		res, err := Run(Spec{Trace: tw, CPUs: 4, Scale: 32, Variant: v})
		if err != nil {
			t.Fatalf("trace/%s: %v", v, err)
		}
		got["trace/irregular/"+string(v)] = fingerprint(res)
	}

	prog, _, cfg, err := Prepare(Spec{Workload: "tomcatv", CPUs: 8, Scale: 32})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(sim.Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := m.SamplePhases(sim.ProcessOptions{Source: sim.ProgramSource(prog), Policy: vm.PageColoring{Colors: cfg.Colors()}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	got["tomcatv/phase-samples/8cpu"] = samplesFingerprint(samples)

	if os.Getenv("WRITE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with WRITE_GOLDEN=1): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, wf := range want {
		if got[name] != wf {
			t.Errorf("%s: diverged from the recorded engine result\n got %s\nwant %s", name, got[name], wf)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: missing from golden file; regenerate with WRITE_GOLDEN=1", name)
		}
	}
}

// samplesFingerprint renders SamplePhases output: every occurrence of
// every phase, in order.
func samplesFingerprint(samples [][]sim.PhaseSample) string {
	var b strings.Builder
	for _, occ := range samples {
		for _, s := range occ {
			fmt.Fprintf(&b, "%s=[inst=%d l2=%d wall=%d] ", s.Phase, s.Instructions, s.L2Misses, s.WallCycles)
		}
	}
	return strings.TrimSpace(b.String())
}
