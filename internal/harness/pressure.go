package harness

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// ExtPressure studies graceful degradation under memory pressure (§5
// step 3): hints are suggestions, and when the preferred color's frame
// pool is empty the fault falls back to another color. As more colors
// are exhausted, the honored fraction falls and CDPC's advantage shrinks
// toward the page-coloring baseline — but never below it, because
// unhonored hints simply revert to the default policy's behaviour.
func ExtPressure(o ExpOptions) (string, error) {
	name := "tomcatv"
	cpus := 16
	if o.Quick {
		cpus = 8
	}

	var b strings.Builder
	b.WriteString("Extension — CDPC under memory pressure (§5 step 3: hints are hints)\n")
	fmt.Fprintf(&b, "%s on %d CPUs; N of the machine's colors have empty frame pools.\n\n", name, cpus)
	fmt.Fprintf(&b, "%-18s %12s %10s %12s\n", "exhausted colors", "wall(Mcyc)", "honored%", "vs coloring")

	// Only the baseline is a standard Spec; the pressured runs below need
	// raw simulator access (ExhaustColors) and stay serial. Their process
	// is the CDPC variant's, from the one variant table.
	baseline, err := o.run(Spec{Workload: name, Scale: o.Scale, CPUs: cpus, Variant: PageColoring})
	if err != nil {
		return "", err
	}

	spec := Spec{Workload: name, Scale: o.Scale, CPUs: cpus, Variant: CDPC}
	cfg := spec.Config()
	fractions := []int{0, 4, 8, 12}
	for _, n := range fractions {
		prog, sum, _, err := Prepare(spec)
		if err != nil {
			return "", err
		}
		po, err := programOptions(prog, sum, cfg, spec)
		if err != nil {
			return "", err
		}
		var exhausted []int
		for c := 0; c < n && c < cfg.Colors(); c++ {
			exhausted = append(exhausted, c)
		}
		m, err := sim.New(sim.Options{Config: cfg, ExhaustColors: exhausted})
		if err != nil {
			return "", err
		}
		res, err := m.Run(po)
		if err != nil {
			return "", err
		}
		if err := o.audit(res); err != nil {
			return "", fmt.Errorf("pressure run (%d exhausted colors): %w", n, err)
		}
		honored := 0.0
		if res.HintedFaults > 0 {
			honored = 100 * float64(res.HonoredHints) / float64(res.HintedFaults)
		}
		fmt.Fprintf(&b, "%-18d %12.1f %9.0f%% %12.2f\n",
			n, float64(res.WallCycles)/1e6, honored,
			res.Speedup(baseline))
	}
	b.WriteString("\nCDPC degrades gracefully: the win shrinks as pools empty, and a fully\n")
	b.WriteString("pressured system simply behaves like the default policy — the property\n")
	b.WriteString("that makes the hint interface safe to integrate in a commercial OS (§5.3).\n")
	return b.String(), nil
}
