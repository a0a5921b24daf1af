package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/textplot"
	"repro/internal/workloads"
)

// ExpOptions configures experiment reproduction runs.
type ExpOptions struct {
	// Scale divides the paper's machine and data sizes; 0 uses the
	// default (1/16).
	Scale int
	// Quick restricts CPU counts and workloads for fast runs.
	Quick bool
	// Runner, when set, executes simulations through a memoizing
	// parallel scheduler: each experiment warms its full spec set on the
	// worker pool, then renders serially from the memo cache, so output
	// is byte-identical to a serial run. Nil runs everything inline.
	Runner *Scheduler
	// Audit, when set, checks every result's conservation invariants
	// (sim.Result.Audit) and fails the experiment on any violation —
	// silent counter drift becomes a hard error.
	Audit bool
	// Procs overrides the co-scheduling degree of the multiprogramming
	// extension (ext-multiprog): N > 1 runs exactly N instances instead
	// of the default 2- and 4-way sweep.
	Procs int
	// Sampled runs every compatible simulation in phase-sampled mode
	// (representative windows with functional warm-up) for ~10x
	// throughput; MCPI stays within 2% of full fidelity only at
	// ext-sampling's 2-CPU page-coloring shape. Specs that need the full
	// reference stream (attribution, co-scheduling, dynamic recoloring)
	// silently keep full fidelity.
	Sampled bool
	// Topology runs every simulation on the named cache topology
	// (MACHINES.md) instead of the preset's default hierarchy. Specs
	// that pick a topology themselves (ext-topology's matrix) keep
	// their own choice. Unknown names fail at run time like any
	// invalid spec.
	Topology string
}

// run executes one spec, through the scheduler when one is configured,
// and audits the result when auditing is on.
func (o ExpOptions) run(s Spec) (*sim.Result, error) {
	var res *sim.Result
	var err error
	s = o.mapSpec(s)
	if o.Runner != nil {
		res, err = o.Runner.Run(s)
	} else {
		res, err = Run(s)
	}
	if err != nil {
		return res, err
	}
	if err := o.audit(res); err != nil {
		return res, fmt.Errorf("%s/%s on %d cpus: %w", s.Workload, s.Variant, s.CPUs, err)
	}
	return res, nil
}

// audit applies the conservation-invariant check to a result when
// auditing is enabled; nil otherwise.
func (o ExpOptions) audit(res *sim.Result) error {
	if !o.Audit {
		return nil
	}
	return obs.AuditError(res.Audit())
}

// warm pre-executes specs on the scheduler's pool so the render loop
// that follows hits only memoized results. Errors are deliberately not
// surfaced here: they reappear from run at the same deterministic point
// a serial execution would fail. A no-op without a scheduler.
func (o ExpOptions) warm(specs []Spec) {
	if o.Runner == nil {
		return
	}
	if o.Sampled || o.Topology != "" {
		// Apply run's mapping so the warmed memo keys match the keys the
		// render loop will ask for.
		mapped := make([]Spec, len(specs))
		for i, s := range specs {
			mapped[i] = o.mapSpec(s)
		}
		specs = mapped
	}
	o.Runner.Warm(specs)
}

// mapSpec applies the options' fidelity and topology to one spec.
// Sampled is set unconditionally: withDefaults clears it again on specs
// with a SampleConflict.
func (o ExpOptions) mapSpec(s Spec) Spec {
	if o.Sampled {
		s.Sampled = true
	}
	if o.Topology != "" && s.Topology == "" {
		s.Topology = o.Topology
	}
	return s
}

func (o ExpOptions) scale() int {
	if o.Scale == 0 {
		return workloads.DefaultScale
	}
	return o.Scale
}

func (o ExpOptions) cpuCounts() []int {
	if o.Quick {
		return []int{1, 8}
	}
	return []int{1, 2, 4, 8, 16}
}

func (o ExpOptions) alphaCPUCounts() []int {
	if o.Quick {
		return []int{1, 8}
	}
	return []int{1, 2, 4, 8}
}

func (o ExpOptions) workloadNames() []string {
	if o.Quick {
		return []string{"tomcatv", "swim", "applu"}
	}
	return workloads.Names()
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o ExpOptions) (string, error)
}

// Experiments lists every table and figure reproduction, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: reference data set sizes of SPEC95fp", Table1},
		{"fig2", "Figure 2: high-level characterization of the workloads", Fig2},
		{"fig3", "Figure 3: page-level access patterns (page coloring)", Fig3},
		{"fig5", "Figure 5: access patterns in CDPC coloring order", Fig5},
		{"fig6", "Figure 6: impact of compiler-directed page coloring", Fig6},
		{"fig7", "Figure 7: CDPC on 2-way associative and 4MB caches", Fig7},
		{"fig8", "Figure 8: CDPC combined with compiler-inserted prefetching", Fig8},
		{"fig9", "Figure 9: page mapping policies on the AlphaServer config", Fig9},
		{"table2", "Table 2: execution time and SPEC95fp rating (8 CPUs)", Table2},
		{"ext-dynamic", "Extension: dynamic page recoloring vs CDPC", ExtDynamic},
		{"ext-padding", "Extension: the compiler padding baseline vs OS policy (§2.2)", ExtPadding},
		{"ext-phases", "Extension: representative-execution-window validation (§3.2)", ExtPhases},
		{"ext-pressure", "Extension: CDPC under memory pressure (§5 step 3)", ExtPressure},
		{"ext-multiprog", "Extension: CDPC vs first-touch/bin-hopping under co-scheduling", ExtMultiprog},
		{"ext-sampling", "Extension: phase-sampled execution vs full fidelity (error budget)", ExtSampling},
		{"ext-topology", "Extension: page mapping policies across cache topologies", ExtTopology},
	}
}

// ExperimentByID returns the experiment with the given id.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

// Table1 reports the scaled data-set sizes next to the paper's (§3.1).
func Table1(o ExpOptions) (string, error) {
	t := textplot.NewTable("Benchmark", "Paper (MB)", fmt.Sprintf("Scaled 1/%d (KB)", o.scale()), "Ratio kept")
	for _, m := range workloads.Registry() {
		p := m.Build(o.scale())
		scaledKB := float64(p.DataBytes()) / 1024
		target := m.PaperDataMB * 1024 / float64(o.scale())
		t.Row(m.Name, m.PaperDataMB, scaledKB, fmt.Sprintf("%.0f%%", 100*scaledKB/target))
	}
	return "Table 1 — Reference data set sizes (scaled by 1/" +
		fmt.Sprint(o.scale()) + ", ratios to cache size preserved)\n\n" + t.String(), nil
}

// Fig2 reproduces the four views of Figure 2 for every workload under
// the base machine and IRIX-style page coloring.
func Fig2(o ExpOptions) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 2 — High-level characterization (1MB-class direct-mapped cache, page coloring)\n")
	b.WriteString("Bars: E=execution  M=memory stall  O=overhead; constant combined height = linear speedup\n\n")

	var specs []Spec
	for _, name := range o.workloadNames() {
		for _, p := range o.cpuCounts() {
			specs = append(specs, Spec{Workload: name, Scale: o.scale(), CPUs: p, Variant: PageColoring})
		}
	}
	o.warm(specs)

	breakdown := textplot.NewTable("workload", "cpus", "combined(Mcyc)", "exec%", "mem%", "kernel%", "imbal%", "seq%", "suppr%", "sync%", "MCPI", "bus%")
	chart := textplot.NewBarChart(50)
	for _, spec := range specs {
		name, p := spec.Workload, spec.CPUs
		res, err := o.run(spec)
		if err != nil {
			return "", err
		}
		exec := res.Total(func(s *sim.CPUStats) uint64 { return s.ExecCycles })
		mem := res.Total((*sim.CPUStats).MemStallCycles)
		kernel := res.Total(func(s *sim.CPUStats) uint64 { return s.KernelCycles })
		imbal := res.Total(func(s *sim.CPUStats) uint64 { return s.ImbalanceCycles })
		seq := res.Total(func(s *sim.CPUStats) uint64 { return s.SequentialCycles })
		sup := res.Total(func(s *sim.CPUStats) uint64 { return s.SuppressedCycles })
		sync := res.Total(func(s *sim.CPUStats) uint64 { return s.SyncCycles })
		comb := float64(res.CombinedCycles())
		pct := func(x uint64) string { return fmt.Sprintf("%.1f", 100*float64(x)/comb) }
		breakdown.Row(name, p, fmt.Sprintf("%.1f", comb/1e6),
			pct(exec), pct(mem), pct(kernel), pct(imbal), pct(seq), pct(sup), pct(sync),
			res.MCPI(), fmt.Sprintf("%.0f", 100*res.BusUtilization()))
		chart.Add(fmt.Sprintf("%s p=%d", name, p), fmt.Sprintf("%.0f Mcyc", comb/1e6),
			textplot.Segment{Glyph: 'E', Value: float64(exec)},
			textplot.Segment{Glyph: 'M', Value: float64(mem)},
			textplot.Segment{Glyph: 'O', Value: float64(kernel + imbal + seq + sup + sync)},
		)
	}
	b.WriteString(chart.String())
	b.WriteString("\n")
	b.WriteString(breakdown.String())
	return b.String(), nil
}

// accessMapWorkloads are the three applications plotted in Figures 3 and 5.
var accessMapWorkloads = []string{"tomcatv", "swim", "hydro2d"}

// Fig3 plots which virtual pages each CPU touches during the steady
// state, in virtual-address order — the sparse patterns that defeat page
// coloring (§4.2).
func Fig3(o ExpOptions) (string, error) {
	return accessMaps(o, false)
}

// Fig5 plots the same accesses in CDPC's coloring order: dense per-CPU
// runs (§5.2).
func Fig5(o ExpOptions) (string, error) {
	return accessMaps(o, true)
}

func accessMaps(o ExpOptions, cdpcOrder bool) (string, error) {
	const ncpu = 16
	var b strings.Builder
	if cdpcOrder {
		b.WriteString("Figure 5 — Access patterns in CDPC coloring order (16 CPUs)\n")
	} else {
		b.WriteString("Figure 3 — Page-level access patterns, virtual-address order (16 CPUs, page coloring)\n")
	}
	b.WriteString("Each row is one CPU; each column one page; '#' = page accessed in steady state.\n\n")
	for _, name := range accessMapWorkloads {
		spec := Spec{Workload: name, Scale: o.scale(), CPUs: ncpu, Variant: CDPC}
		hints, prog, err := Hints(spec)
		if err != nil {
			return "", err
		}
		cfg := spec.Config()
		order := pageUniverse(prog, cfg.PageSize)
		if cdpcOrder {
			order = withCDPCOrder(hints.Order, order)
		}
		density := 0.0
		fmt.Fprintf(&b, "%s (%d pages, %d colors):\n", name, len(order), cfg.Colors())
		for cpu := 0; cpu < ncpu; cpu++ {
			touched := ir.TouchedPages(prog, ncpu, cpu, cfg.PageSize)
			row := make([]byte, len(order))
			for i := range row {
				row[i] = '.'
			}
			lo, hi, n := len(order), -1, 0
			for i, vpn := range order {
				if !touched[vpn] {
					continue
				}
				row[i] = '#'
				if i < lo {
					lo = i
				}
				if i > hi {
					hi = i
				}
				n++
			}
			if n > 0 {
				density += float64(n) / float64(hi-lo+1)
			}
			fmt.Fprintf(&b, "  cpu%02d |%s|\n", cpu, condense(row, 96))
		}
		fmt.Fprintf(&b, "  mean per-CPU density (pages touched / span): %.2f\n\n", density/ncpu)
	}
	return b.String(), nil
}

// pageUniverse lists all data pages in virtual order.
func pageUniverse(prog *ir.Program, pageSize int) []uint64 {
	return ascendingDataPages(prog, pageSize)
}

// withCDPCOrder places hinted pages first in hint order, then any
// remaining (unhinted) pages in virtual order.
func withCDPCOrder(hintOrder, universe []uint64) []uint64 {
	seen := map[uint64]bool{}
	out := make([]uint64, 0, len(universe))
	for _, vpn := range hintOrder {
		out = append(out, vpn)
		seen[vpn] = true
	}
	for _, vpn := range universe {
		if !seen[vpn] {
			out = append(out, vpn)
		}
	}
	return out
}

// condense shrinks a 0/1 row to the given width, marking a bucket when
// any page in it was touched.
func condense(row []byte, width int) string {
	if len(row) <= width {
		return string(row)
	}
	out := make([]byte, width)
	for i := range out {
		out[i] = '.'
		lo := i * len(row) / width
		hi := (i + 1) * len(row) / width
		for _, c := range row[lo:hi] {
			if c == '#' {
				out[i] = '#'
				break
			}
		}
	}
	return string(out)
}

// fig6Workloads excludes apsi and fpppp, which the paper omits because
// CDPC has no effect on them.
func fig6Workloads(o ExpOptions) []string {
	var names []string
	for _, n := range o.workloadNames() {
		if n == "apsi" || n == "fpppp" {
			continue
		}
		names = append(names, n)
	}
	return names
}

// Fig6 compares page coloring with CDPC on the base machine.
func Fig6(o ExpOptions) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 6 — Impact of CDPC (direct-mapped 1MB-class cache)\n")
	b.WriteString("Left bar: page coloring; right bar: CDPC. E=exec M=mem O=overhead\n\n")
	var specs []Spec
	for _, name := range fig6Workloads(o) {
		for _, p := range o.cpuCounts() {
			specs = append(specs,
				Spec{Workload: name, Scale: o.scale(), CPUs: p, Variant: PageColoring},
				Spec{Workload: name, Scale: o.scale(), CPUs: p, Variant: CDPC})
		}
	}
	o.warm(specs)

	t := textplot.NewTable("workload", "cpus", "coloring(Mcyc)", "cdpc(Mcyc)", "speedup", "repl-stall-cut%", "conflict-cut%")
	chart := textplot.NewBarChart(48)
	for i := 0; i < len(specs); i += 2 {
		name, p := specs[i].Workload, specs[i].CPUs
		base, err := o.run(specs[i])
		if err != nil {
			return "", err
		}
		cdpc, err := o.run(specs[i+1])
		if err != nil {
			return "", err
		}
		addComparisonBars(chart, name, p, base, cdpc)
		t.Row(name, p,
			fmt.Sprintf("%.1f", float64(base.CombinedCycles())/1e6),
			fmt.Sprintf("%.1f", float64(cdpc.CombinedCycles())/1e6),
			fmt.Sprintf("%.2f", cdpc.Speedup(base)),
			cutPct(base.Total((*sim.CPUStats).ReplacementStall), cdpc.Total((*sim.CPUStats).ReplacementStall)),
			cutPct(base.Total(func(s *sim.CPUStats) uint64 { return s.ConflictMisses }),
				cdpc.Total(func(s *sim.CPUStats) uint64 { return s.ConflictMisses })))
	}
	b.WriteString(chart.String())
	b.WriteString("\n")
	b.WriteString(t.String())
	return b.String(), nil
}

func addComparisonBars(chart *textplot.BarChart, name string, p int, results ...*sim.Result) {
	for _, res := range results {
		exec := res.Total(func(s *sim.CPUStats) uint64 { return s.ExecCycles })
		mem := res.Total((*sim.CPUStats).MemStallCycles)
		over := res.Total((*sim.CPUStats).OverheadCycles)
		chart.Add(fmt.Sprintf("%s p=%-2d %s", name, p, res.Policy), fmt.Sprintf("%.0f Mcyc", float64(res.CombinedCycles())/1e6),
			textplot.Segment{Glyph: 'E', Value: float64(exec)},
			textplot.Segment{Glyph: 'M', Value: float64(mem)},
			textplot.Segment{Glyph: 'O', Value: float64(over)},
		)
	}
}

func cutPct(before, after uint64) string {
	if before == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f", 100*(1-float64(after)/float64(before)))
}

// fig7Workloads are the five applications the paper carries into the
// cache-configuration study.
func fig7Workloads(o ExpOptions) []string {
	if o.Quick {
		return []string{"tomcatv", "applu"}
	}
	return []string{"tomcatv", "swim", "hydro2d", "su2cor", "applu"}
}

// Fig7 repeats the CDPC comparison on a two-way set-associative cache
// and on a 4MB-class direct-mapped cache.
func Fig7(o ExpOptions) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 7 — CDPC with a 2-way associative cache and with a 4MB-class cache\n\n")
	base := arch.Base(1, o.scale())
	configs := []struct {
		label string
		geom  arch.CacheGeometry
	}{
		{"1MB-class 2-way", arch.CacheGeometry{Size: base.L2.Size, LineSize: base.L2.LineSize, Assoc: 2}},
		{"4MB-class DM", arch.CacheGeometry{Size: base.L2.Size * 4, LineSize: base.L2.LineSize, Assoc: 1}},
	}
	type cell struct {
		label      string
		base, cdpc Spec
	}
	var cells []cell
	for i := range configs {
		geom := &configs[i].geom
		for _, name := range fig7Workloads(o) {
			for _, p := range o.cpuCounts() {
				cells = append(cells, cell{
					label: configs[i].label,
					base:  Spec{Workload: name, Scale: o.scale(), CPUs: p, Variant: PageColoring, L2Override: geom},
					cdpc:  Spec{Workload: name, Scale: o.scale(), CPUs: p, Variant: CDPC, L2Override: geom},
				})
			}
		}
	}
	specs := make([]Spec, 0, 2*len(cells))
	for _, c := range cells {
		specs = append(specs, c.base, c.cdpc)
	}
	o.warm(specs)

	t := textplot.NewTable("config", "workload", "cpus", "coloring(Mcyc)", "cdpc(Mcyc)", "speedup")
	for _, c := range cells {
		baseRes, err := o.run(c.base)
		if err != nil {
			return "", err
		}
		cdpcRes, err := o.run(c.cdpc)
		if err != nil {
			return "", err
		}
		t.Row(c.label, c.base.Workload, c.base.CPUs,
			fmt.Sprintf("%.1f", float64(baseRes.CombinedCycles())/1e6),
			fmt.Sprintf("%.1f", float64(cdpcRes.CombinedCycles())/1e6),
			fmt.Sprintf("%.2f", cdpcRes.Speedup(baseRes)))
	}
	b.WriteString(t.String())
	return b.String(), nil
}

// Fig8 combines CDPC with compiler-inserted prefetching, including the
// §6.2 complementarity decomposition.
func Fig8(o ExpOptions) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 8 — CDPC combined with prefetching (base machine)\n\n")
	var specs []Spec
	for _, name := range fig7Workloads(o) {
		for _, p := range o.cpuCounts() {
			specs = append(specs,
				Spec{Workload: name, Scale: o.scale(), CPUs: p, Variant: PageColoring},
				Spec{Workload: name, Scale: o.scale(), CPUs: p, Variant: CDPC},
				Spec{Workload: name, Scale: o.scale(), CPUs: p, Variant: PageColoring, Prefetch: true},
				Spec{Workload: name, Scale: o.scale(), CPUs: p, Variant: CDPC, Prefetch: true})
		}
	}
	o.warm(specs)

	t := textplot.NewTable("workload", "cpus", "coloring", "cdpc", "pf-only", "cdpc+pf", "speedup(cdpc)", "speedup(pf)", "speedup(both)")
	for i := 0; i < len(specs); i += 4 {
		rs := make([]*sim.Result, 4)
		for j := range rs {
			r, err := o.run(specs[i+j])
			if err != nil {
				return "", err
			}
			rs[j] = r
		}
		mc := func(r *sim.Result) string { return fmt.Sprintf("%.1f", float64(r.CombinedCycles())/1e6) }
		t.Row(specs[i].Workload, specs[i].CPUs, mc(rs[0]), mc(rs[1]), mc(rs[2]), mc(rs[3]),
			fmt.Sprintf("%.2f", rs[1].Speedup(rs[0])),
			fmt.Sprintf("%.2f", rs[2].Speedup(rs[0])),
			fmt.Sprintf("%.2f", rs[3].Speedup(rs[0])))
	}
	b.WriteString(t.String())
	return b.String(), nil
}

// alphaVariants are the four bars of Figure 9. Both page coloring and
// CDPC are realized by touching pages in order over the native
// bin-hopping kernel, as on the real Digital UNIX system (§7).
func alphaVariants() []Variant {
	return []Variant{BinHopping, ColoringTouch, CDPCTouch, BinHoppingUnaligned}
}

// Fig9 validates the technique on the AlphaServer configuration.
func Fig9(o ExpOptions) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 9 — AlphaServer-class validation (4MB-class direct-mapped cache)\n")
	b.WriteString("Both coloring and CDPC are emulated by touch ordering over bin hopping, as on Digital UNIX.\n\n")
	var specs []Spec
	for _, name := range o.workloadNames() {
		for _, p := range o.alphaCPUCounts() {
			for _, v := range alphaVariants() {
				specs = append(specs, Spec{Workload: name, Scale: o.scale(), CPUs: p, Machine: AlphaMachine, Variant: v})
			}
		}
	}
	o.warm(specs)

	t := textplot.NewTable("workload", "cpus", "bin-hop(Mcyc)", "coloring(Mcyc)", "cdpc(Mcyc)", "unaligned(Mcyc)", "cdpc/binhop", "cdpc/coloring")
	for _, name := range o.workloadNames() {
		for _, p := range o.alphaCPUCounts() {
			rs := map[Variant]*sim.Result{}
			for _, v := range alphaVariants() {
				r, err := o.run(Spec{Workload: name, Scale: o.scale(), CPUs: p, Machine: AlphaMachine, Variant: v})
				if err != nil {
					return "", err
				}
				rs[v] = r
			}
			mc := func(v Variant) string { return fmt.Sprintf("%.1f", float64(rs[v].CombinedCycles())/1e6) }
			t.Row(name, p, mc(BinHopping), mc(ColoringTouch), mc(CDPCTouch), mc(BinHoppingUnaligned),
				fmt.Sprintf("%.2f", rs[CDPCTouch].Speedup(rs[BinHopping])),
				fmt.Sprintf("%.2f", rs[CDPCTouch].Speedup(rs[ColoringTouch])))
		}
	}
	b.WriteString(t.String())
	return b.String(), nil
}

// anchorRating is the uniprocessor SPEC95fp-style rating assigned to the
// best uniprocessor time of each workload; the paper's SPEC95fp rating
// under bin hopping implies a uniprocessor geometric mean near 13.7
// (57.4 ÷ 4.2 speedup). Absolute ratings are anchored, relative ones are
// measured — see EXPERIMENTS.md.
const anchorRating = 13.7

// SpecRating computes the anchored rating of a run against the best
// uniprocessor result for the same workload.
func SpecRating(uniBest, r *sim.Result) float64 {
	if r.WallCycles == 0 {
		return 0
	}
	return anchorRating * float64(uniBest.WallCycles) / float64(r.WallCycles)
}

// GeoMean returns the geometric mean of xs.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Table2 reports per-workload times and the SPEC95fp-style rating at 8
// CPUs for bin hopping, page coloring and CDPC on the AlphaServer
// configuration, plus the headline percentage improvements.
func Table2(o ExpOptions) (string, error) {
	cpus := 8
	if o.Quick {
		cpus = 4
	}
	variants := []Variant{BinHopping, ColoringTouch, CDPCTouch}
	names := o.workloadNames()

	var specs []Spec
	for _, name := range names {
		for _, v := range variants {
			specs = append(specs,
				Spec{Workload: name, Scale: o.scale(), CPUs: 1, Machine: AlphaMachine, Variant: v},
				Spec{Workload: name, Scale: o.scale(), CPUs: cpus, Machine: AlphaMachine, Variant: v})
		}
	}
	o.warm(specs)

	uniBest := map[string]*sim.Result{}
	results := map[string]map[Variant]*sim.Result{}
	for _, name := range names {
		results[name] = map[Variant]*sim.Result{}
		for _, v := range variants {
			uni, err := o.run(Spec{Workload: name, Scale: o.scale(), CPUs: 1, Machine: AlphaMachine, Variant: v})
			if err != nil {
				return "", err
			}
			if b, ok := uniBest[name]; !ok || uni.WallCycles < b.WallCycles {
				uniBest[name] = uni
			}
			r, err := o.run(Spec{Workload: name, Scale: o.scale(), CPUs: cpus, Machine: AlphaMachine, Variant: v})
			if err != nil {
				return "", err
			}
			results[name][v] = r
		}
	}

	t := textplot.NewTable("Benchmark", "BinHop(Mcyc)", "Coloring(Mcyc)", "CDPC(Mcyc)", "BinHop ratio", "Coloring ratio", "CDPC ratio")
	ratings := map[Variant][]float64{}
	for _, name := range names {
		row := []interface{}{name}
		for _, v := range variants {
			row = append(row, fmt.Sprintf("%.1f", float64(results[name][v].WallCycles)/1e6))
		}
		for _, v := range variants {
			rating := SpecRating(uniBest[name], results[name][v])
			ratings[v] = append(ratings[v], rating)
			row = append(row, fmt.Sprintf("%.1f", rating))
		}
		t.Row(row...)
	}
	gm := map[Variant]float64{}
	for _, v := range variants {
		gm[v] = GeoMean(ratings[v])
	}
	t.Row("SPEC95fp (geomean)", "", "", "",
		fmt.Sprintf("%.1f", gm[BinHopping]), fmt.Sprintf("%.1f", gm[ColoringTouch]), fmt.Sprintf("%.1f", gm[CDPCTouch]))

	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — Execution time and SPEC95fp-style rating (%d CPUs, AlphaServer config)\n\n", cpus)
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nCDPC over bin hopping: %+.0f%%   (paper: +8%%)\n", 100*(gm[CDPCTouch]/gm[BinHopping]-1))
	fmt.Fprintf(&b, "CDPC over page coloring: %+.0f%%  (paper: +20%%)\n", 100*(gm[CDPCTouch]/gm[ColoringTouch]-1))
	return b.String(), nil
}

// SortedExperimentIDs returns all experiment ids.
func SortedExperimentIDs() []string {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
