package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"repro/internal/harness"
)

// fullFig6 runs the paper's Figure 6 headline pair — tomcatv and swim
// on 16 CPUs under page coloring and CDPC — at full fidelity, serially,
// through harness.Run (no memo). The seed orders each pass.
type fullFig6 struct {
	seed  uint64
	specs []harness.Spec
}

// fig6Specs lists the headline specs.
func fig6Specs() []harness.Spec {
	var out []harness.Spec
	for _, w := range []string{"tomcatv", "swim"} {
		for _, v := range []harness.Variant{harness.PageColoring, harness.CDPC} {
			out = append(out, harness.Spec{Workload: w, CPUs: 16, Variant: v})
		}
	}
	return out
}

// setUp resolves the specs and compiles each once, which validates them
// before any timing starts.
func (f *fullFig6) setUp(seed uint64) error {
	f.seed, f.specs = seed, fig6Specs()
	for _, s := range f.specs {
		if golden.FullFig6[specKey(s)] == "" {
			return fmt.Errorf("%s: no recorded fingerprint", specKey(s))
		}
		if _, _, _, err := harness.Prepare(s); err != nil {
			return err
		}
	}
	return nil
}

// measure runs whole passes over the four specs until d has elapsed.
func (f *fullFig6) measure(d time.Duration, y *yardstick) *window {
	w := &window{y: y}
	rng := rand.New(rand.NewPCG(f.seed, 0))
	for w.elapsed == 0 || w.elapsed < d {
		if err := w.setUpAgain(f, f.seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			w.attempted++
			w.failed++
			break
		}
		start := time.Now()
		var simTime time.Duration
		var insts uint64
		complete := true
		for _, i := range rng.Perm(len(f.specs)) {
			s := f.specs[i]
			w.attempted++
			y.calibrate()
			t := time.Now()
			res, err := harness.Run(s)
			lat := y.scale(time.Since(t))
			if err == nil {
				err = checkResult(res, golden.FullFig6[specKey(s)])
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", specKey(s), err)
				w.failed++
				complete = false
				continue
			}
			w.jobs = append(w.jobs, lat)
			simTime += lat
			insts += instructions(res)
			w.keep(specKey(s), res)
		}
		w.insts += insts
		if complete {
			w.rates = append(w.rates, float64(insts)/simTime.Seconds())
		}
		w.busy += simTime
		w.elapsed += time.Since(start)
	}
	return w
}

// layers replays the four specs' captured streams and reports the
// compiler, hint and sampling-accuracy metrics.
func (f *fullFig6) layers(w *window) (map[string]float64, error) {
	caps := make([]*irCapture, len(f.specs))
	for i, s := range f.specs {
		c, err := captureIR(s, fig6ReplayRefs)
		if err != nil {
			return nil, err
		}
		caps[i] = c
	}
	m, err := irLayerMetrics(caps)
	if err != nil {
		return nil, err
	}
	// Sampling accuracy: each headline spec phase-sampled, checked, and
	// compared with the full-fidelity result the profiled window checked.
	var worst float64
	for _, s := range f.specs {
		key := specKey(s)
		full := w.results[key]
		if full == nil {
			return nil, fmt.Errorf("%s: no checked full result", key)
		}
		s.Sampled = true
		w.attempted++
		sam, err := harness.Run(s)
		if err == nil {
			err = checkResult(sam, golden.FullFig6Sampled[key])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s sampled: %v\n", key, err)
			w.failed++
			continue
		}
		worst = max(worst, mcpiErrPct(sam, full))
	}
	m["sampled_mcpi_err_pct"] = worst
	return m, nil
}

// fig6ReplayRefs is the per-spec reference budget of the layer replay.
const fig6ReplayRefs = 1 << 18
