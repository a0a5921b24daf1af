package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/sim"
)

// window is what one measured stretch of a workload produced.
//
// Every time in a window except elapsed is rescaled to the reference
// host speed by the yardstick (yardstick.go).
type window struct {
	y *yardstick
	// elapsed is the host time the timed operations took, unscaled; it
	// only decides when to stop.
	elapsed time.Duration
	// busy is the rescaled time of the timed operations.
	busy time.Duration
	// setUps holds the duration of each set-up in seconds.
	setUps []float64
	// jobs holds the latency of every job that completed and passed its
	// output check; cached is the subset served from the memo.
	jobs, cached []time.Duration
	// rates holds simulated instructions per second, one per pass
	// (full-fig6) or round (cdpcd-sampled).
	rates []float64
	// insts counts the simulated instructions of freshly simulated jobs.
	insts uint64
	// attempted and failed count operations; a failed check is a failure.
	attempted, failed int
	// memoHits and memoMisses are the harness scheduler's memo counters.
	memoHits, memoMisses uint64
	// results keeps one checked result per spec key.
	results map[string]*sim.Result
}

func (w *window) minstPerSec() float64 { return median(w.rates) / 1e6 }

func (w *window) jobMSP50() float64 { return median(millis(w.jobs)) }

// jobMSP90 returns the 90th percentile job latency, or 0 when fewer than
// ten samples lie beyond it.
func (w *window) jobMSP90() float64 {
	ms := millis(w.jobs)
	sort.Float64s(ms)
	i := int(math.Ceil(0.9*float64(len(ms)))) - 1
	if i < 0 || len(ms)-1-i < 10 {
		return 0
	}
	return ms[i]
}

// setUpAgain re-runs a workload's set-up inside a window and times it.
func (w *window) setUpAgain(wl workload, seed uint64) error {
	t := time.Now()
	err := wl.setUp(seed)
	w.setUps = append(w.setUps, w.y.scale(time.Since(t)).Seconds())
	return err
}

// keep records a checked result under its spec key.
func (w *window) keep(key string, res *sim.Result) {
	if w.results == nil {
		w.results = map[string]*sim.Result{}
	}
	w.results[key] = res
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// median returns the middle value (the mean of the two middle values for
// an even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// instructions sums a result's per-CPU instruction counts.
func instructions(r *sim.Result) uint64 {
	return r.Total(func(s *sim.CPUStats) uint64 { return s.Instructions })
}

// cpuFracLayers are the modules the CPU profile folds samples onto.
var cpuFracLayers = []string{"ir", "trace", "tlb", "vm", "cache", "coherence", "bus", "memory",
	"sim", "compiler", "core", "harness", "server"}

// units gives every metric's unit.
var units = map[string]string{
	// End to end.
	"setup_s":         "s",
	"sim_minst_per_s": "Minst/s",
	"job_ms_p50":      "ms",
	"jobs_per_s":      "1/s",
	"peak_rss_mb":     "MB",

	// Per layer: layer replay.
	"tlb.lookup_ns":                "ns",
	"tlb.hit_ratio":                "ratio",
	"tlb.calls":                    "count",
	"vm.translate_ns":              "ns",
	"vm.faults":                    "count",
	"vm.calls":                     "count",
	"ir.stream_ns_per_ref":         "ns",
	"ir.stream_allocs_per_ref":     "allocs/ref",
	"cache.l1_access_ns":           "ns",
	"cache.l1_hit_ratio":           "ratio",
	"cache.l1_calls":               "count",
	"cache.shadow_access_ns":       "ns",
	"cache.shadow_allocs_per_call": "allocs/call",
	"cache.shadow_calls":           "count",
	"cache.llc_access_ns":          "ns",
	"cache.llc_hit_ratio":          "ratio",
	"cache.llc_calls":              "count",
	"coherence.access_ns":          "ns",
	"coherence.allocs_per_call":    "allocs/call",
	"coherence.calls":              "count",
	"bus.acquire_ns":               "ns",
	"bus.calls":                    "count",
	"trace.decode_ns_per_ref":      "ns",
	"trace.decode_allocs_per_ref":  "allocs/ref",
	"trace.summarize_ms":           "ms",
	"compiler.prepare_ms":          "ms",
	"core.hints_ms":                "ms",

	// Per layer: profiled window and its neighbours.
	"sim.allocs_per_kinst":   "allocs/kinst",
	"runtime.gc_frac":        "fraction",
	"other.cpu_frac":         "fraction",
	"harness.memo_hit_ratio": "ratio",
	"server.memo_hit_ms_p50": "ms",
	"sampled_mcpi_err_pct":   "%",
	"job_ms_p90":             "ms",
	"trace_overhead_pct":     "%",
}

func init() {
	for _, l := range cpuFracLayers {
		units[l+".cpu_frac"] = "fraction"
	}
}

// endToEndNames lists the untraced run's metrics.
var endToEndNames = []string{"setup_s", "sim_minst_per_s", "job_ms_p50", "jobs_per_s", "peak_rss_mb"}

// perLayerNames lists the traced run's metrics: every unit entry that is
// not an end-to-end metric.
func perLayerNames() []string {
	e2e := map[string]bool{}
	for _, n := range endToEndNames {
		e2e[n] = true
	}
	var out []string
	for _, n := range sortedKeys(units) {
		if !e2e[n] {
			out = append(out, n)
		}
	}
	return out
}
