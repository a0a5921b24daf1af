package harness

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

func run(t *testing.T, s Spec) *sim.Result {
	t.Helper()
	r, err := Run(s)
	if err != nil {
		t.Fatalf("%+v: %v", s, err)
	}
	return r
}

func TestAllVariantsExecute(t *testing.T) {
	for _, v := range Variants() {
		r := run(t, Spec{Workload: "tomcatv", CPUs: 2, Variant: v})
		if r.WallCycles == 0 {
			t.Errorf("%s: zero wall clock", v)
		}
		wantPolicy := string(v)
		if r.Policy != wantPolicy {
			t.Errorf("%s: result policy %q", v, r.Policy)
		}
	}
}

func TestUnknownWorkloadAndVariant(t *testing.T) {
	if _, err := Run(Spec{Workload: "nope", CPUs: 1}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Run(Spec{Workload: "tomcatv", CPUs: 1, Variant: "bogus"}); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	r := run(t, Spec{Workload: "fpppp"})
	if r.NumCPUs != 1 {
		t.Errorf("default CPUs = %d, want 1", r.NumCPUs)
	}
	if r.Policy != string(PageColoring) {
		t.Errorf("default policy = %s", r.Policy)
	}
}

// TestHeadlineTomcatv asserts the paper's flagship result: CDPC far
// outperforms page coloring at 16 CPUs on the base machine ("as much as
// a factor of two in some cases"; our scaled machine amplifies it).
func TestHeadlineTomcatv(t *testing.T) {
	base := run(t, Spec{Workload: "tomcatv", CPUs: 16, Variant: PageColoring})
	cdpc := run(t, Spec{Workload: "tomcatv", CPUs: 16, Variant: CDPC})
	if sp := cdpc.Speedup(base); sp < 1.5 {
		t.Errorf("tomcatv@16 CDPC speedup = %.2f, want ≥ 1.5", sp)
	}
	// CDPC also relieves the saturated bus (§6.2's bandwidth argument).
	if cdpc.BusUtilization() >= base.BusUtilization() {
		t.Errorf("CDPC did not reduce bus utilization: %.2f vs %.2f",
			cdpc.BusUtilization(), base.BusUtilization())
	}
	// And eliminates most conflict misses.
	conf := func(r *sim.Result) uint64 {
		return r.Total(func(s *sim.CPUStats) uint64 { return s.ConflictMisses })
	}
	if conf(cdpc)*2 > conf(base) {
		t.Errorf("conflicts not halved: %d vs %d", conf(cdpc), conf(base))
	}
}

// TestSwimGainsGrowWithCPUs: the paper reports swim's CDPC gains begin
// at eight processors (§6.1) and that page coloring saturates the bus.
func TestSwimGainsGrowWithCPUs(t *testing.T) {
	sp := func(p int) float64 {
		base := run(t, Spec{Workload: "swim", CPUs: p, Variant: PageColoring})
		cdpc := run(t, Spec{Workload: "swim", CPUs: p, Variant: CDPC})
		return cdpc.Speedup(base)
	}
	s2, s8 := sp(2), sp(8)
	if s8 < 1.5 {
		t.Errorf("swim@8 CDPC speedup %.2f, want large", s8)
	}
	if s8 <= s2 {
		t.Errorf("swim gains should grow with CPUs: p2=%.2f p8=%.2f", s2, s8)
	}
}

// TestSu2corNearNeutral: CDPC maps only su2cor's analyzable arrays and
// may conflict with the rest; the paper reports a slight degradation.
// Assert it stays slight in either direction.
func TestSu2corNearNeutral(t *testing.T) {
	base := run(t, Spec{Workload: "su2cor", CPUs: 8, Variant: PageColoring})
	cdpc := run(t, Spec{Workload: "su2cor", CPUs: 8, Variant: CDPC})
	if sp := cdpc.Speedup(base); sp < 0.80 || sp > 1.25 {
		t.Errorf("su2cor@8 CDPC speedup %.2f, want near 1.0", sp)
	}
}

// TestPolicyInsensitiveWorkloads: apsi, fpppp and wave5 should barely
// move across policies (Table 2 shows identical times for fpppp).
func TestPolicyInsensitiveWorkloads(t *testing.T) {
	for _, name := range []string{"apsi", "fpppp", "wave5"} {
		base := run(t, Spec{Workload: name, CPUs: 8, Variant: PageColoring})
		cdpc := run(t, Spec{Workload: name, CPUs: 8, Variant: CDPC})
		if sp := cdpc.Speedup(base); sp < 0.9 || sp > 1.15 {
			t.Errorf("%s@8 CDPC speedup %.2f, want ≈ 1.0", name, sp)
		}
	}
}

// TestNeitherStaticPolicyDominates: the paper's §1 claim. Across the
// suite at 8 CPUs, each static policy must win somewhere.
func TestNeitherStaticPolicyDominates(t *testing.T) {
	coloringWins, binhopWins := 0, 0
	for _, name := range []string{"tomcatv", "swim", "applu", "turb3d", "mgrid"} {
		pc := run(t, Spec{Workload: name, CPUs: 8, Variant: PageColoring})
		bh := run(t, Spec{Workload: name, CPUs: 8, Variant: BinHopping})
		switch {
		case float64(pc.WallCycles) < 0.98*float64(bh.WallCycles):
			coloringWins++
		case float64(bh.WallCycles) < 0.98*float64(pc.WallCycles):
			binhopWins++
		}
	}
	if coloringWins == 0 || binhopWins == 0 {
		t.Errorf("one static policy dominates: coloring wins %d, bin hopping wins %d", coloringWins, binhopWins)
	}
}

// TestCDPCTouchMatchesKernelCDPC: the Digital UNIX touch-order
// implementation should land close to the kernel-hint implementation in
// steady state (startup costs are excluded from the measured window).
func TestCDPCTouchMatchesKernelCDPC(t *testing.T) {
	k := run(t, Spec{Workload: "tomcatv", CPUs: 8, Variant: CDPC})
	touch := run(t, Spec{Workload: "tomcatv", CPUs: 8, Variant: CDPCTouch})
	ratio := float64(touch.WallCycles) / float64(k.WallCycles)
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("touch-order CDPC off by %.2fx from kernel CDPC", ratio)
	}
}

func TestUnalignedLayoutHurts(t *testing.T) {
	// swim is the paper's most alignment-sensitive code (§7).
	aligned := run(t, Spec{Workload: "swim", CPUs: 8, Variant: BinHopping})
	unaligned := run(t, Spec{Workload: "swim", CPUs: 8, Variant: BinHoppingUnaligned})
	fs := func(r *sim.Result) uint64 {
		return r.Total(func(s *sim.CPUStats) uint64 { return s.FalseShareMisses })
	}
	if fs(unaligned) <= fs(aligned) {
		t.Errorf("unaligned layout should add false sharing: %d vs %d", fs(unaligned), fs(aligned))
	}
}

func TestHintsExposed(t *testing.T) {
	h, prog, err := Hints(Spec{Workload: "tomcatv", CPUs: 8, Variant: CDPC})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Order) == 0 || prog == nil {
		t.Fatal("no hints computed")
	}
	if len(h.Order) != len(h.Colors) {
		t.Errorf("order %d vs colors %d", len(h.Order), len(h.Colors))
	}
}

func TestSpecRatingAndGeoMean(t *testing.T) {
	uni := &sim.Result{WallCycles: 1000}
	r8 := &sim.Result{WallCycles: 250}
	if got := SpecRating(uni, r8); got != anchorRating*4 {
		t.Errorf("SpecRating = %v, want %v", got, anchorRating*4)
	}
	if got := GeoMean([]float64{2, 8}); got != 4 {
		t.Errorf("GeoMean = %v, want 4", got)
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{1, 0}) != 0 {
		t.Error("GeoMean degenerate cases")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := SortedExperimentIDs()
	want := []string{"ext-dynamic", "ext-multiprog", "ext-padding", "ext-phases", "ext-pressure", "ext-sampling", "ext-topology", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "table1", "table2"}
	if len(ids) != len(want) {
		t.Fatalf("experiments = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("ids[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
	if _, err := ExperimentByID("fig6"); err != nil {
		t.Error(err)
	}
	if _, err := ExperimentByID("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTable1ListsAllWorkloads(t *testing.T) {
	out, err := Table1(ExpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("table1 missing %s", name)
		}
	}
}

// TestAccessMapDensityImproves quantifies Figures 3 vs 5: CDPC's
// coloring order makes each CPU's touched pages dense.
func TestAccessMapDensityImproves(t *testing.T) {
	virt, err := Fig3(ExpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cdpc, err := Fig5(ExpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dv := meanDensities(t, virt)
	dc := meanDensities(t, cdpc)
	if len(dv) != 3 || len(dc) != 3 {
		t.Fatalf("densities: %v %v", dv, dc)
	}
	for i := range dv {
		if dc[i] < 2*dv[i] {
			t.Errorf("workload %d: CDPC density %.2f not ≥ 2x virtual-order %.2f", i, dc[i], dv[i])
		}
	}
}

func meanDensities(t *testing.T, out string) []float64 {
	t.Helper()
	const prefix = "  mean per-CPU density (pages touched / span): "
	var ds []float64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		d, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, prefix)), 64)
		if err != nil {
			t.Fatalf("bad density line %q: %v", line, err)
		}
		ds = append(ds, d)
	}
	return ds
}

// TestDynamicRecoloringVariant runs the extension variant end to end:
// it must execute, recolor, and (per the paper's §2.1 argument) not beat
// CDPC on a conflict-heavy workload.
func TestDynamicRecoloringVariant(t *testing.T) {
	dyn := run(t, Spec{Workload: "tomcatv", CPUs: 8, Variant: DynamicRecoloring})
	if dyn.Total(func(s *sim.CPUStats) uint64 { return s.Recolorings }) == 0 {
		t.Error("dynamic variant performed no recolorings")
	}
	cdpc := run(t, Spec{Workload: "tomcatv", CPUs: 8, Variant: CDPC})
	if dyn.WallCycles <= cdpc.WallCycles {
		t.Errorf("dynamic (%d) beat CDPC (%d); the paper's cost argument should hold", dyn.WallCycles, cdpc.WallCycles)
	}
}

// TestExtPhasesStableOccurrences asserts the §3.2 validation: phase
// occurrences vary by far less than 1% in our deterministic steady
// state.
func TestExtPhasesStableOccurrences(t *testing.T) {
	out, err := ExtPhases(ExpOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "%") || strings.Contains(line, "stddev") || strings.Contains(line, "paper") {
			continue
		}
		if strings.Contains(line, "10.") || strings.Contains(line, "99.") {
			t.Errorf("suspiciously large variation: %q", line)
		}
	}
}

// TestPaddingBaselineDiesUnderBinHopping asserts §2.2: compiler padding
// eliminates conflicts under page coloring (virtual staggering survives
// the mapping) but is erased by bin hopping's fault-order coloring.
func TestPaddingBaselineDiesUnderBinHopping(t *testing.T) {
	coloring := run(t, Spec{Workload: "tomcatv", CPUs: 8, Variant: PageColoring})
	padded := run(t, Spec{Workload: "tomcatv", CPUs: 8, Variant: PaddedColoring})
	if sp := padded.Speedup(coloring); sp < 1.2 {
		t.Errorf("padding over coloring = %.2fx, want a substantial win", sp)
	}
	binhop := run(t, Spec{Workload: "tomcatv", CPUs: 8, Variant: BinHopping})
	paddedBH := run(t, Spec{Workload: "tomcatv", CPUs: 8, Variant: PaddedBinHopping})
	if sp := paddedBH.Speedup(binhop); sp < 0.85 || sp > 1.15 {
		t.Errorf("padding over bin hopping = %.2fx, want ≈ 1.0 (page-sized pads are erased)", sp)
	}
}

// TestPressureDegradesGracefully asserts §5 step 3: with every color's
// pool drained except a few, CDPC's hints go unhonored but performance
// never falls below the fallback policy's.
func TestPressureDegradesGracefully(t *testing.T) {
	spec := Spec{Workload: "tomcatv", CPUs: 8, Variant: CDPC}
	cfg := spec.Config()
	prog, sum, _, err := Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	po, err := programOptions(prog, sum, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	exhausted := make([]int, cfg.Colors()/2)
	for i := range exhausted {
		exhausted[i] = i
	}
	m, err := sim.New(sim.Options{Config: cfg, ExhaustColors: exhausted})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(po)
	if err != nil {
		t.Fatal(err)
	}
	if res.HonoredHints >= res.HintedFaults {
		t.Errorf("pressure did not defeat any hints: %d/%d", res.HonoredHints, res.HintedFaults)
	}
	if res.HonoredHints == 0 {
		t.Error("hints to unexhausted colors should still be honored")
	}
	baseline := run(t, Spec{Workload: "tomcatv", CPUs: 8, Variant: PageColoring})
	if float64(res.WallCycles) > 1.25*float64(baseline.WallCycles) {
		t.Errorf("pressured CDPC (%d) far worse than the fallback policy (%d)", res.WallCycles, baseline.WallCycles)
	}
}
