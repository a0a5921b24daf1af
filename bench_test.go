// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Each experiment benchmark runs the same code path as
// cmd/experiments; quick mode keeps `go test -bench=.` bounded while the
// command reproduces the full sweeps.
//
// Reported custom metrics carry the headline results into the benchmark
// output (e.g. cdpc-speedup-x on the Figure 6 benchmark).
package repro_test

import (
	"testing"

	repro "repro"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// quickOpts bounds experiment benchmarks: 2 CPU counts, 3 workloads.
var quickOpts = harness.ExpOptions{Quick: true}

func benchExperiment(b *testing.B, id string) string {
	e, err := harness.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var out string
	for i := 0; i < b.N; i++ {
		out, err = e.Run(quickOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	return out
}

// BenchmarkTable1DataSetSizes regenerates Table 1.
func BenchmarkTable1DataSetSizes(b *testing.B) {
	benchExperiment(b, "table1")
}

// BenchmarkFig2Characterization regenerates Figure 2's four views.
func BenchmarkFig2Characterization(b *testing.B) {
	benchExperiment(b, "fig2")
}

// BenchmarkFig3AccessPatterns regenerates Figure 3 (virtual order).
func BenchmarkFig3AccessPatterns(b *testing.B) {
	benchExperiment(b, "fig3")
}

// BenchmarkFig5AccessPatternsCDPC regenerates Figure 5 (coloring order).
func BenchmarkFig5AccessPatternsCDPC(b *testing.B) {
	benchExperiment(b, "fig5")
}

// BenchmarkFig6CDPCImpact regenerates Figure 6 and reports the tomcatv
// 16-CPU CDPC speedup as a metric.
func BenchmarkFig6CDPCImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := harness.Run(harness.Spec{Workload: "tomcatv", CPUs: 16, Variant: harness.PageColoring})
		if err != nil {
			b.Fatal(err)
		}
		cdpc, err := harness.Run(harness.Spec{Workload: "tomcatv", CPUs: 16, Variant: harness.CDPC})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cdpc.Speedup(base), "cdpc-speedup-x")
	}
}

// BenchmarkFig7Associativity regenerates Figure 7 (2-way and 4MB-class
// caches).
func BenchmarkFig7Associativity(b *testing.B) {
	benchExperiment(b, "fig7")
}

// BenchmarkFig8Prefetching regenerates Figure 8 (CDPC + prefetching).
func BenchmarkFig8Prefetching(b *testing.B) {
	benchExperiment(b, "fig8")
}

// BenchmarkFig9Alpha regenerates Figure 9 (AlphaServer validation).
func BenchmarkFig9Alpha(b *testing.B) {
	benchExperiment(b, "fig9")
}

// BenchmarkTable2SpecRatio regenerates Table 2 and the headline
// percentage improvements.
func BenchmarkTable2SpecRatio(b *testing.B) {
	benchExperiment(b, "table2")
}

// BenchmarkHintComputation measures the pure CDPC algorithm (§5.2) on
// the largest workload — the cost an application pays at start-up.
func BenchmarkHintComputation(b *testing.B) {
	prog, sum, cfg, err := harness.Prepare(harness.Spec{Workload: "wave5", CPUs: 16})
	if err != nil {
		b.Fatal(err)
	}
	params := core.Params{NumCPUs: cfg.NumCPUs, NumColors: cfg.Colors(), PageSize: cfg.PageSize}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ComputeHints(prog, sum, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompilerSummarize measures the §5.1 summary extraction.
func BenchmarkCompilerSummarize(b *testing.B) {
	meta, err := workloads.ByName("swim")
	if err != nil {
		b.Fatal(err)
	}
	prog := meta.Build(workloads.DefaultScale)
	cfg := repro.BaseMachine(8, workloads.DefaultScale)
	if err := compiler.Layout(prog, compiler.DefaultLayout(cfg.L2.LineSize, cfg.L1D.Size, cfg.PageSize)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compiler.Summarize(prog)
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (references per second) on a uniprocessor tomcatv run. Compared
// against BenchmarkSimulatorThroughputObserved, it also guards the
// observability layer's disabled-path overhead (untaken nil checks
// only; the issue budget is <2%).
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Run(harness.Spec{Workload: "tomcatv", CPUs: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughputSampled is the same uniprocessor tomcatv
// run under phase-sampled execution — representative windows with
// functional warm-up instead of the full trace. The issue budget is
// ≥10x over the recorded full-fidelity baseline at <2% MCPI error
// (asserted by TestSampledFidelity and the verify.sh smoke run).
func BenchmarkSimulatorThroughputSampled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.Run(harness.Spec{Workload: "tomcatv", CPUs: 1, Sampled: true})
		if err != nil {
			b.Fatal(err)
		}
		if r.Fidelity != sim.FidelitySampled {
			b.Fatalf("fidelity = %q, want %q", r.Fidelity, sim.FidelitySampled)
		}
	}
}

// BenchmarkSampledMix runs the 40-spec phase-sampled job mix cdpcd
// serves in the repository benchmark, the ten workloads x
// {page-coloring, cdpc} x {4, 8} CPUs, once per pass and serially. Its
// -benchmem bytes per pass are the allocation a daemon's GC must absorb
// for one round of fresh jobs.
func BenchmarkSampledMix(b *testing.B) {
	var specs []harness.Spec
	for _, w := range workloads.Names() {
		for _, v := range []harness.Variant{harness.PageColoring, harness.CDPC} {
			for _, cpus := range []int{4, 8} {
				specs = append(specs, harness.Spec{Workload: w, CPUs: cpus, Variant: v, Sampled: true})
			}
		}
	}
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := harness.Run(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTraceDecode measures binary-trace replay speed: decode a
// CDPCTRC1 image and drain every per-CPU stream. This is the input
// path of trace-driven simulation (DESIGN.md §15.2), so it reports
// ns/ref alongside the per-image ns/op; verify.sh guards the recorded
// trace_decode_ns_per_ref baseline in BENCH_harness.json against
// regression.
func BenchmarkTraceDecode(b *testing.B) {
	data, refs := benchTraceImage(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := trace.DecodeBytes(data)
		if err != nil {
			b.Fatal(err)
		}
		var r trace.Ref
		var n uint64
		for cpu := 0; cpu < f.NumCPUs(); cpu++ {
			s := f.Stream(cpu)
			for s.Next(&r) {
				n++
			}
		}
		if n != refs {
			b.Fatalf("drained %d refs, want %d", n, refs)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*refs), "ns/ref")
}

// benchTraceRefs is the reference count of the benchTraceImage fixture;
// TestWriteHarnessBench divides the per-image decode time by it to
// record trace_decode_ns_per_ref.
const benchTraceRefs = benchTraceCPUs * benchTracePerCPU

const benchTraceCPUs, benchTracePerCPU = 4, 1 << 16

// benchTraceImage encodes a deterministic 4-CPU trace (mixed strides,
// sizes and work so every encoder feature is on the decode path).
func benchTraceImage(b *testing.B) ([]byte, uint64) {
	b.Helper()
	const ncpus, perCPU = benchTraceCPUs, benchTracePerCPU
	e, err := trace.NewEncoder(ncpus)
	if err != nil {
		b.Fatal(err)
	}
	for cpu := 0; cpu < ncpus; cpu++ {
		addr := uint64(cpu) << 30
		for i := 0; i < perCPU; i++ {
			r := trace.Ref{Kind: trace.Kind(i % 3), VAddr: addr, Size: 8}
			if i%5 == 0 {
				r.Size = 4
			}
			if i%7 == 0 {
				r.Work = uint32(i % 11)
			}
			if err := e.Add(cpu, r); err != nil {
				b.Fatal(err)
			}
			addr += uint64(1 + i%3*64)
			if i%64 == 63 {
				addr -= 4096
			}
		}
	}
	f := e.File()
	return f.AppendBinary(nil), f.TotalRefs()
}

// BenchmarkSimulatorThroughputObserved is the same run with a fresh
// collector and event ring attached — the price of full attribution.
func BenchmarkSimulatorThroughputObserved(b *testing.B) {
	for i := 0; i < b.N; i++ {
		col := obs.NewCollector(obs.Options{Tracer: obs.NewRing(1024)})
		if _, err := harness.Run(harness.Spec{Workload: "tomcatv", CPUs: 1, Obs: col}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// ablationSpeedup runs tomcatv@16 CDPC with the given algorithm options
// and reports its speedup over page coloring.
func ablationSpeedup(b *testing.B, opts core.Options) {
	for i := 0; i < b.N; i++ {
		base, err := harness.Run(harness.Spec{Workload: "tomcatv", CPUs: 16, Variant: harness.PageColoring})
		if err != nil {
			b.Fatal(err)
		}
		cdpc, err := harness.Run(harness.Spec{Workload: "tomcatv", CPUs: 16, Variant: harness.CDPC, CDPCOptions: opts})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cdpc.Speedup(base), "speedup-x")
	}
}

// BenchmarkAblationFullAlgorithm is the reference point for the other
// ablations.
func BenchmarkAblationFullAlgorithm(b *testing.B) {
	ablationSpeedup(b, core.Options{})
}

// BenchmarkAblationNoCyclicStart disables step 4 (cyclic page ordering
// within segments).
func BenchmarkAblationNoCyclicStart(b *testing.B) {
	ablationSpeedup(b, core.Options{DisableCyclicStart: true})
}

// BenchmarkAblationNoGroupOrdering disables step 3 (group-access
// ordering of segments within a set).
func BenchmarkAblationNoGroupOrdering(b *testing.B) {
	ablationSpeedup(b, core.Options{DisableGroupOrdering: true})
}

// BenchmarkAblationNoSetOrdering disables step 2 (greedy path over
// access sets).
func BenchmarkAblationNoSetOrdering(b *testing.B) {
	ablationSpeedup(b, core.Options{DisableSetOrdering: true})
}

// BenchmarkAblationNoClassification measures the simulation-speed cost
// of the shadow-cache conflict/capacity classifier.
func BenchmarkAblationNoClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Run(harness.Spec{Workload: "tomcatv", CPUs: 8, DisableClassification: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWithClassification is the classified counterpart.
func BenchmarkAblationWithClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Run(harness.Spec{Workload: "tomcatv", CPUs: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtDynamicRecoloring runs the dynamic-recoloring extension
// study (quick form) and reports the dynamic policy's speedup over page
// coloring next to CDPC's.
func BenchmarkExtDynamicRecoloring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := harness.Run(harness.Spec{Workload: "tomcatv", CPUs: 8, Variant: harness.PageColoring})
		if err != nil {
			b.Fatal(err)
		}
		dyn, err := harness.Run(harness.Spec{Workload: "tomcatv", CPUs: 8, Variant: harness.DynamicRecoloring})
		if err != nil {
			b.Fatal(err)
		}
		cdpc, err := harness.Run(harness.Spec{Workload: "tomcatv", CPUs: 8, Variant: harness.CDPC})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(dyn.Speedup(base), "dynamic-speedup-x")
		b.ReportMetric(cdpc.Speedup(base), "cdpc-speedup-x")
	}
}

// BenchmarkExtPhaseVariation runs the §3.2 representative-window
// validation.
func BenchmarkExtPhaseVariation(b *testing.B) {
	benchExperiment(b, "ext-phases")
}

// BenchmarkExtPadding runs the §2.2 padding-baseline study and reports
// padding's effect under each static policy.
func BenchmarkExtPadding(b *testing.B) {
	benchExperiment(b, "ext-padding")
}

// BenchmarkExtPressure runs the memory-pressure degradation study.
func BenchmarkExtPressure(b *testing.B) {
	benchExperiment(b, "ext-pressure")
}

// BenchmarkAblationImprovedSetOrdering measures the extension's
// cost-minimizing insertion variant of step 2 (DESIGN.md §6).
func BenchmarkAblationImprovedSetOrdering(b *testing.B) {
	ablationSpeedup(b, core.Options{ImprovedSetOrdering: true})
}
