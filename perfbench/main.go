// Command perfbench is the repository benchmark: two seeded workloads
// (full-fig6, cdpcd-sampled) that time the simulator end to end and, in
// a separate traced run, layer by layer. Every simulated
// result is checked against recorded fingerprints; the last line of
// standard output is one JSON object with the metrics.
//
//	perfbench --workload full-fig6 --seed 1 --seconds 10 --trace 0
//	perfbench -record   # recompute testdata/golden.json
//
// See README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// workload is one benchmark input family.
type workload interface {
	// setUp builds the workload's inputs from the seed. It runs several
	// times per process and the last one is kept.
	setUp(seed uint64) error
	// measure runs timed operations, setting up again before each pass
	// or round, until d of timed work has elapsed (at least one pass),
	// and checks every output. Times are rescaled by y.
	measure(d time.Duration, y *yardstick) *window
	// layers reports the traced run's workload-specific per-layer
	// metrics; w is the profiled window whose results it may reuse.
	layers(w *window) (map[string]float64, error)
}

// benchWorkloads maps each --workload name to its constructor.
var benchWorkloads = map[string]func() workload{
	"full-fig6":     func() workload { return &fullFig6{} },
	"cdpcd-sampled": func() workload { return &cdpcdSampled{} },
}

// initialSetUps is how many set-ups run before the first timed
// operation. Workloads set up again before every pass or round, and
// setup_s is the median over all of them, so it samples the host across
// the whole run like the throughput metrics do.
const initialSetUps = 3

func main() {
	name := flag.String("workload", "", "workload: full-fig6 or cdpcd-sampled")
	seed := flag.Uint64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	record := flag.Bool("record", false, "recompute testdata/golden.json and exit")
	flag.Parse()

	if *record {
		if err := recordGolden("testdata/golden.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	mk, ok := benchWorkloads[*name]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v) and --seconds >= 1\n", sortedKeys(benchWorkloads))
		os.Exit(2)
	}
	out, err := run(mk(), *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run sets the workload up, measures it and assembles the result line.
func run(w workload, seed uint64, d time.Duration, traced bool) (*output, error) {
	y := newYardstick()
	setUps, err := timeSetUps(w, seed, y)
	if err != nil {
		return nil, err
	}
	if !traced {
		win := w.measure(d, y)
		win.setUps = append(win.setUps, setUps...)
		out := &output{Attempted: win.attempted, Failed: win.failed, Metrics: map[string]metric{}}
		for name, v := range endToEnd(win) {
			out.Metrics[name] = metric{v, units[name]}
		}
		out.Correct = out.Failed == 0 && out.Attempted > 0
		return out, nil
	}
	vals, attempted, failed, err := tracedRun(w, d, y)
	if err != nil {
		return nil, err
	}
	out := &output{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, name := range perLayerNames() {
		v, ok := vals[name]
		if !ok {
			return nil, fmt.Errorf("traced run did not produce %s", name)
		}
		out.Metrics[name] = metric{v, units[name]}
	}
	out.Correct = failed == 0 && attempted > 0
	return out, nil
}

// timeSetUps runs the workload's initial set-ups and returns their
// rescaled durations in seconds.
func timeSetUps(w workload, seed uint64, y *yardstick) ([]float64, error) {
	var times []float64
	for len(times) < initialSetUps {
		t := time.Now()
		if err := w.setUp(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, y.scale(time.Since(t)).Seconds())
	}
	return times, nil
}

// endToEnd derives the end-to-end metrics of an untraced window.
func endToEnd(w *window) map[string]float64 {
	return map[string]float64{
		"setup_s":         median(w.setUps),
		"sim_minst_per_s": w.minstPerSec(),
		"job_ms_p50":      w.jobMSP50(),
		"jobs_per_s":      float64(len(w.jobs)) / w.busy.Seconds(),
		"peak_rss_mb":     peakRSSMB(),
	}
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
