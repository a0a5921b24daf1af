package harness

import (
	"strings"
	"testing"
)

// extOpts shrinks the extension studies to test size: quick sweeps at
// 1/64 scale keep every run tens of milliseconds.
func extOpts() ExpOptions {
	return ExpOptions{Quick: true, Scale: 64}
}

func TestExtDynamicReportsAllPolicies(t *testing.T) {
	out, err := ExtDynamic(extOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dynamic page recoloring vs CDPC",
		"coloring(M)", "dynamic(M)", "cdpc(M)", "recolors",
		"tomcatv", // the quick workload
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The table body must contain a data row: workload name followed by
	// the CPU count used in quick mode.
	if !strings.Contains(out, "tomcatv  8") {
		t.Errorf("no tomcatv/8-cpu data row in:\n%s", out)
	}
}

func TestExtDynamicSchedulerOutputIdentical(t *testing.T) {
	serial, err := ExtDynamic(extOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := extOpts()
	o.Runner = NewScheduler(4)
	o.Audit = true
	pooled, err := ExtDynamic(o)
	if err != nil {
		t.Fatal(err)
	}
	if serial != pooled {
		t.Error("scheduler run not byte-identical to serial run")
	}
}

func TestExtPaddingShowsPaddingContrast(t *testing.T) {
	out, err := ExtPadding(extOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"padding baseline vs the OS page mapping policy",
		"coloring(M)", "+padding(M)", "binhop(M)", "cdpc(M)",
		"pad/colr", "pad/binhop",
		"tomcatv",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestExtPaddingWithSchedulerAndAudit(t *testing.T) {
	o := extOpts()
	o.Runner = NewScheduler(4)
	o.Audit = true
	out, err := ExtPadding(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "tomcatv") {
		t.Errorf("no data row in:\n%s", out)
	}
	if runs := o.Runner.Runs(); runs == 0 {
		t.Error("scheduler executed no runs")
	}
}

// TestExtMultiprogHonorsTopology runs the multiprogramming extension
// with a topology option and requires every simulation that reached the
// scheduler, warmed and rendered alike, to carry that topology.
func TestExtMultiprogHonorsTopology(t *testing.T) {
	o := extOpts()
	o.Runner, o.Topology = NewScheduler(2), "sliced-llc4"
	if _, err := ExtMultiprog(o); err != nil {
		t.Fatal(err)
	}
	sc := o.Runner
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.memo) == 0 {
		t.Fatal("scheduler executed no runs")
	}
	for k := range sc.memo {
		if k.Topology != o.Topology {
			t.Errorf("%s with co-runners %q ran on topology %q, want %q", k.Workload, k.CoRunners, k.Topology, o.Topology)
		}
	}
}
