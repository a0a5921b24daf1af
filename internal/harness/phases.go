package harness

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
)

// ExtPhases validates the representative-execution-window method of
// §3.2: different occurrences of each steady-state phase must behave
// alike, or weighting one occurrence by the phase's count would be
// unsound. The paper found per-phase standard deviations below 1% of the
// mean for instructions and miss rate in all benchmarks but wave5.
func ExtPhases(o ExpOptions) (string, error) {
	names := []string{"tomcatv", "turb3d", "swim", "wave5"}
	if o.Quick {
		names = names[:2]
	}
	const repeats = 4
	cpus := 8

	var b strings.Builder
	b.WriteString("Extension — representative-execution-window validation (§3.2)\n")
	fmt.Fprintf(&b, "Each steady-state phase executed %d times on %d CPUs; per-phase variation:\n\n", repeats, cpus)
	fmt.Fprintf(&b, "%-8s %-12s %6s %16s %14s %14s\n", "workload", "phase", "occurs", "mean inst (M)", "inst stddev%", "miss stddev%")

	for _, name := range names {
		prog, _, cfg, err := Prepare(Spec{Workload: name, Scale: o.Scale, CPUs: cpus})
		if err != nil {
			return "", err
		}
		m, err := sim.New(sim.Options{Config: cfg})
		if err != nil {
			return "", err
		}
		// The process takes the default placement, page coloring.
		samples, err := m.SamplePhases(sim.ProcessOptions{Source: sim.ProgramSource(prog)}, repeats)
		if err != nil {
			return "", err
		}
		for pi, phaseSamples := range samples {
			var inst, miss []float64
			for _, s := range phaseSamples {
				inst = append(inst, float64(s.Instructions))
				miss = append(miss, float64(s.L2Misses))
			}
			mi, cvI := meanCV(inst)
			_, cvM := meanCV(miss)
			fmt.Fprintf(&b, "%-8s %-12s %6d %16.2f %13.2f%% %13.2f%%\n",
				name, phaseSamples[0].Phase, prog.Phases[pi].Occurrences, mi/1e6, 100*cvI, 100*cvM)
		}
	}
	b.WriteString("\npaper: stddev < 1% of mean for instructions and miss rate in all but one\n")
	b.WriteString("case (one wave5 phase varied 4% in instructions, 30% in misses; our wave5\n")
	b.WriteString("analog is deterministic, so only cache-state carryover variation appears).\n")
	return b.String(), nil
}

// meanCV returns the mean and the coefficient of variation (stddev/mean).
func meanCV(xs []float64) (mean, cv float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if mean == 0 {
		return 0, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss/float64(len(xs))) / mean
}
