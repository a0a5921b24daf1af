// Command experiments regenerates every table and figure of the paper's
// evaluation (Table 1, Figures 2–3 and 5–9, Table 2) on the simulated
// machine.
//
// Usage:
//
//	experiments              # run everything (minutes)
//	experiments -id fig6     # one experiment
//	experiments -quick       # reduced CPU counts and workload set
//	experiments -list        # list experiment ids
//	experiments -parallel=false   # force fully serial execution
//	experiments -workers 4        # cap the simulation worker pool
//
// By default simulations run on a memoizing parallel scheduler sized to
// GOMAXPROCS; output is byte-identical to a serial run (rendering is
// decoupled from execution order, and results are deterministic).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/harness"
)

func main() {
	var (
		id       = flag.String("id", "", "experiment id (empty = all)")
		quick    = flag.Bool("quick", false, "reduced sweep for fast runs")
		scale    = flag.Int("scale", 0, "machine+data scale divisor (0 = default 16)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		outDir   = flag.String("o", "", "also write each experiment's output to <dir>/<id>.txt")
		parallel = flag.Bool("parallel", true, "run simulations on a parallel worker pool with memoization")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		audit    = flag.Bool("audit", false, "check conservation invariants on every simulation; violations exit non-zero")
		procsN   = flag.Int("procs", 0, "override the co-scheduling degree swept by ext-multiprog (0 = default sweep)")
		sampled  = flag.Bool("sampled", false, "run compatible simulations phase-sampled (~10x faster; MCPI within 2% of full only at the 2-CPU page-coloring shape ext-sampling measures, ~30% off on 8-16 CPU fig6/cdpc specs; incompatible specs keep full fidelity)")
		topology = flag.String("topology", "", "cache topology for every simulation (see MACHINES.md; specs that pin their own, like ext-topology, keep it)")
	)
	flag.Parse()

	if !arch.KnownTopology(*topology) {
		fmt.Fprintf(os.Stderr, "experiments: unknown topology %q (have %s)\n",
			*topology, strings.Join(arch.TopologyNames(), ", "))
		os.Exit(1)
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := harness.ExpOptions{Scale: *scale, Quick: *quick, Audit: *audit, Procs: *procsN, Sampled: *sampled, Topology: *topology}
	if *parallel {
		// One scheduler across all experiments: identical specs (e.g. the
		// page-coloring baselines shared by Figures 2, 6 and 8) simulate once.
		opts.Runner = harness.NewScheduler(*workers)
	}
	var exps []harness.Experiment
	if *id != "" {
		e, err := harness.ExperimentByID(*id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		exps = []harness.Experiment{e}
	} else {
		exps = harness.Experiments()
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	for _, e := range exps {
		start := time.Now()
		out, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("================ %s — %s (%.1fs) ================\n\n%s\n",
			e.ID, e.Title, time.Since(start).Seconds(), out)
		if *outDir != "" {
			path := filepath.Join(*outDir, e.ID+".txt")
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
	}
}
