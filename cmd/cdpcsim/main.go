// Command cdpcsim runs one workload on the simulated multiprocessor
// under a chosen page mapping configuration and prints the paper-style
// statistics: execution breakdown, MCPI by miss class, bus utilization
// and hint effectiveness.
//
// Usage:
//
//	cdpcsim -workload tomcatv -cpus 8 -variant cdpc
//	cdpcsim -workload swim -cpus 16 -variant page-coloring -prefetch
//	cdpcsim -workload applu -machine alpha -variant bin-hopping
//	cdpcsim -workload hydro2d -cpus 8 -sampled
//
// Multiprogramming (space-shared co-scheduling; per-process and
// machine-total statistics):
//
//	cdpcsim -workload tomcatv -cpus 8 -variant cdpc -procs 2
//	cdpcsim -workload tomcatv -corun swim/first-touch -sched partition
//	cdpcsim -workload swim -procs 4 -sched timeslice -quantum 250000
//	cdpcsim -workload swim -procs 2 -isolate -audit
//
// Trace-driven runs (replay a recorded address stream; convert the
// common text form with cmd/traceconv):
//
//	cdpcsim -trace-file app.trc -variant cdpc -audit
//	cdpcsim -trace-file app.trc -variant first-touch -attr
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "tomcatv", "workload name ("+strings.Join(workloads.Names(), ", ")+")")
		cpus     = flag.Int("cpus", 8, "number of processors (1-16)")
		scale    = flag.Int("scale", workloads.DefaultScale, "machine+data scale divisor")
		variant  = flag.String("variant", "page-coloring", "mapping variant (page-coloring, bin-hopping, bin-hopping-unaligned, cdpc, cdpc-touch, coloring-touch, dynamic-recoloring, padded-coloring, padded-bin-hopping, first-touch)")
		machine  = flag.String("machine", "base", "machine preset (base, alpha)")
		prefetch = flag.Bool("prefetch", false, "enable compiler-inserted prefetching")
		progFile = flag.String("program", "", "run a custom program from a text-format file instead of a bundled workload")
		machFile = flag.String("machine-file", "", "load a custom machine configuration from a JSON file")
		dumpMach = flag.Bool("dump-machine", false, "print the resolved machine configuration as JSON and exit")
		attr     = flag.Bool("attr", false, "collect and print per-color/per-page miss attribution and the color-by-set miss heatmap")
		traceN   = flag.Int("trace", 0, "keep the last N observability events (faults, hint outcomes, recolorings, conflict bursts) and print them")
		audit    = flag.Bool("audit", false, "check conservation invariants after the run; violations exit non-zero")
		sampled  = flag.Bool("sampled", false, "phase-sampled execution: detail-simulate one representative window per phase with functional warm-up (~10x faster; MCPI within 2% of full only at the 2-CPU page-coloring shape ext-sampling measures, ~30% off on 8-16 CPU fig6/cdpc specs)")
		procs    = flag.Int("procs", 1, "co-schedule N identical instances of the workload on one machine")
		corun    = flag.String("corun", "", "comma-separated co-runners, each workload[/variant]; empty fields inherit the primary")
		schedF   = flag.String("sched", "", "space-sharing discipline for multiprocess runs (timeslice, partition; default timeslice)")
		quantum  = flag.Uint64("quantum", 0, "time-slice quantum in cycles for multiprocess runs (0 = simulator default)")
		isolate  = flag.Bool("isolate", false, "color-partition multiprocess runs: each process allocates only from its isolation domain's exclusive color subset")
		topology = flag.String("topology", "", "cache topology ("+strings.Join(arch.TopologyNames(), ", ")+"; empty = default)")
		topoFile = flag.String("topology-file", "", "load a cache topology from a JSON file and select it (overrides -topology when that is empty)")
		trcFile  = flag.String("trace-file", "", "replay a binary reference trace instead of simulating a workload (convert text traces with cmd/traceconv)")
	)
	flag.Parse()

	if *topoFile != "" {
		topo, err := arch.LoadTopologyFile(*topoFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdpcsim:", err)
			os.Exit(1)
		}
		if err := arch.RegisterTopology(topo); err != nil {
			fmt.Fprintln(os.Stderr, "cdpcsim:", err)
			os.Exit(1)
		}
		if *topology == "" {
			*topology = topo.Name
		}
	}

	spec := harness.Spec{
		Workload: *workload,
		Scale:    *scale,
		CPUs:     *cpus,
		Machine:  harness.MachineKind(*machine),
		Variant:  harness.Variant(*variant),
		Prefetch: *prefetch,
		Topology: *topology,
		Sampled:  *sampled,
		Sched:    harness.SchedKind(*schedF),
		Quantum:  *quantum,
		Isolate:  *isolate,
	}
	for i := 1; i < *procs; i++ {
		spec.CoRunners = append(spec.CoRunners, harness.CoRunner{})
	}
	if *corun != "" {
		for _, f := range strings.Split(*corun, ",") {
			cr, err := parseCoRunner(f)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cdpcsim:", err)
				os.Exit(1)
			}
			spec.CoRunners = append(spec.CoRunners, cr)
		}
	}
	if *trcFile != "" {
		if *progFile != "" {
			fmt.Fprintln(os.Stderr, "cdpcsim: -trace-file and -program are mutually exclusive")
			os.Exit(1)
		}
		f, err := os.Open(*trcFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdpcsim:", err)
			os.Exit(1)
		}
		tf, err := trace.Decode(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdpcsim: %s: %v\n", *trcFile, err)
			os.Exit(1)
		}
		spec.Workload = ""
		spec.Trace = harness.NewTraceWorkload(filepath.Base(*trcFile), tf)
		// Unless -cpus was given explicitly, size the machine to the
		// trace's own stream count.
		cpusSet := false
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name == "cpus" {
				cpusSet = true
			}
		})
		if !cpusSet {
			spec.CPUs = 0
		}
	}
	var ring *obs.Ring
	if *traceN > 0 {
		ring = obs.NewRing(*traceN)
	}
	if *attr || ring != nil {
		var o obs.Options
		if ring != nil {
			o.Tracer = ring // assign only when non-nil: a typed-nil Tracer is not a nil interface
		}
		spec.Obs = obs.NewCollector(o)
	}
	post := func(violations func() []obs.Violation) {
		if *attr {
			fmt.Println()
			fmt.Print(spec.Obs.Report(10))
		}
		if ring != nil {
			events := ring.Events()
			fmt.Printf("\nevent trace (last %d of %d):\n", len(events), uint64(len(events))+ring.Dropped())
			for _, e := range events {
				fmt.Println(" ", e)
			}
		}
		if *audit {
			if vs := violations(); len(vs) > 0 {
				fmt.Fprintln(os.Stderr, "cdpcsim:", obs.AuditError(vs))
				os.Exit(2)
			}
			fmt.Println("\naudit: all conservation invariants hold")
		}
	}
	if *machFile != "" {
		cfg, err := arch.LoadConfigFile(*machFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdpcsim:", err)
			os.Exit(1)
		}
		spec.ConfigOverride = &cfg
	}
	if err := harness.Check(spec); err != nil {
		fmt.Fprintln(os.Stderr, "cdpcsim:", err)
		os.Exit(1)
	}
	if spec.Sampled {
		// Reject rather than let the harness silently run full fidelity.
		if err := harness.SampleConflict(spec); err != nil {
			fmt.Fprintln(os.Stderr, "cdpcsim: -sampled:", err)
			os.Exit(1)
		}
	}
	if *dumpMach {
		cfg := spec.Config()
		if err := cfg.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "cdpcsim:", err)
			os.Exit(1)
		}
		return
	}
	if *progFile != "" {
		f, err := os.Open(*progFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdpcsim:", err)
			os.Exit(1)
		}
		prog, err := ir.Parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdpcsim: %s: %v\n", *progFile, err)
			os.Exit(1)
		}
		res, err := harness.RunProgram(prog, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdpcsim:", err)
			os.Exit(1)
		}
		print(res, spec)
		post(res.Audit)
		return
	}
	if len(spec.CoRunners) > 0 {
		mr, err := harness.RunMulti(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdpcsim:", err)
			os.Exit(1)
		}
		printMulti(mr, spec)
		post(mr.Audit)
		return
	}
	res, err := harness.Run(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdpcsim:", err)
		os.Exit(1)
	}
	print(res, spec)
	post(res.Audit)
}

// parseCoRunner parses one -corun field of the form workload[/variant];
// an empty workload or variant inherits the primary spec's.
func parseCoRunner(f string) (harness.CoRunner, error) {
	f = strings.TrimSpace(f)
	name, variant, _ := strings.Cut(f, "/")
	cr := harness.CoRunner{Workload: strings.TrimSpace(name), Variant: harness.Variant(strings.TrimSpace(variant))}
	if cr.Workload == "" && cr.Variant == "" && f != "" && f != "/" {
		return cr, fmt.Errorf("bad -corun entry %q (want workload[/variant])", f)
	}
	return cr, nil
}

// printMulti prints the per-process table, then the machine total in
// the single-process layout.
func printMulti(mr *sim.MultiResult, spec harness.Spec) {
	cfg := spec.Config()
	fmt.Printf("multiprogramming: %d processes on %s (%d CPUs, %d colors, %s scheduling)\n",
		len(mr.PerProcess), mr.Total.Machine, mr.Total.NumCPUs, cfg.Colors(), mr.Sched)
	fmt.Printf("machine wall %d cycles (%.2f ms at %d MHz)\n\n",
		mr.Total.WallCycles, float64(mr.Total.WallCycles)/float64(cfg.ClockMHz)/1000, cfg.ClockMHz)

	wlW, polW := len("workload"), len("policy")
	for _, r := range append([]*sim.Result{mr.Total}, mr.PerProcess...) {
		wlW = max(wlW, len(r.Workload))
		polW = max(polW, len(r.Policy))
	}
	fmt.Printf("%-5s %-*s %-*s %10s %8s %10s %8s %7s\n",
		"proc", wlW, "workload", polW, "policy", "wall(M)", "MCPI", "conflicts", "faults", "ctxsw")
	row := func(label string, r *sim.Result) {
		fmt.Printf("%-5s %-*s %-*s %10.1f %8.3f %10d %8d %7d\n",
			label, wlW, r.Workload, polW, r.Policy,
			float64(r.WallCycles)/1e6, r.MCPI(),
			r.Total(func(s *sim.CPUStats) uint64 { return s.ConflictMisses }),
			r.Total(func(s *sim.CPUStats) uint64 { return s.PageFaults }),
			r.Total(func(s *sim.CPUStats) uint64 { return s.ContextSwitches }))
	}
	for i, r := range mr.PerProcess {
		row(fmt.Sprint(i+1), r)
	}
	row("total", mr.Total)

	// Additive so unpartitioned output stays byte-identical.
	if mr.Total.Isolated {
		fmt.Printf("\nisolation: color-partitioned domains; cross-domain evictions %d (invariant 12: exactly 0)\n",
			mr.Total.Total(func(s *sim.CPUStats) uint64 { return s.CrossDomainConflicts }))
	}

	fmt.Println("\nmachine total:")
	print(mr.Total, spec)
}

func print(res *sim.Result, spec harness.Spec) {
	cfg := spec.Config()
	fmt.Printf("workload   %s on %s (%d CPUs, %d colors, %s)\n",
		res.Workload, res.Machine, res.NumCPUs, cfg.Colors(), res.Policy)
	if res.Fidelity == sim.FidelitySampled {
		fmt.Printf("fidelity   sampled (%d windows, %d of %d outer iterations detailed, %d warm-up refs)\n",
			res.SampledWindows, res.SampledIters, res.RepresentedIters, res.WarmupRefs)
	}
	fmt.Printf("wall clock %d cycles (%.2f ms at %d MHz)\n",
		res.WallCycles, float64(res.WallCycles)/float64(cfg.ClockMHz)/1000, cfg.ClockMHz)
	fmt.Printf("combined   %.1f Mcycles over all CPUs\n", float64(res.CombinedCycles())/1e6)

	tot := func(f func(*sim.CPUStats) uint64) uint64 { return res.Total(f) }
	comb := float64(res.CombinedCycles())
	pct := func(x uint64) float64 { return 100 * float64(x) / comb }

	fmt.Println("\ncycle breakdown (% of combined time):")
	fmt.Printf("  execution    %6.1f%%\n", pct(tot(func(s *sim.CPUStats) uint64 { return s.ExecCycles })))
	fmt.Printf("  memory stall %6.1f%%\n", pct(tot((*sim.CPUStats).MemStallCycles)))
	fmt.Printf("  kernel       %6.1f%%\n", pct(tot(func(s *sim.CPUStats) uint64 { return s.KernelCycles })))
	fmt.Printf("  imbalance    %6.1f%%\n", pct(tot(func(s *sim.CPUStats) uint64 { return s.ImbalanceCycles })))
	fmt.Printf("  sequential   %6.1f%%\n", pct(tot(func(s *sim.CPUStats) uint64 { return s.SequentialCycles })))
	fmt.Printf("  suppressed   %6.1f%%\n", pct(tot(func(s *sim.CPUStats) uint64 { return s.SuppressedCycles })))
	fmt.Printf("  synchroniz.  %6.1f%%\n", pct(tot(func(s *sim.CPUStats) uint64 { return s.SyncCycles })))

	fmt.Println("\nmemory system:")
	fmt.Printf("  MCPI            %.3f\n", res.MCPI())
	fmt.Printf("  off-chip misses %d (cold %d, conflict %d, capacity %d, true-share %d, false-share %d)\n",
		tot(func(s *sim.CPUStats) uint64 { return s.L2Misses }),
		tot(func(s *sim.CPUStats) uint64 { return s.ColdMisses }),
		tot(func(s *sim.CPUStats) uint64 { return s.ConflictMisses }),
		tot(func(s *sim.CPUStats) uint64 { return s.CapacityMisses }),
		tot(func(s *sim.CPUStats) uint64 { return s.TrueShareMisses }),
		tot(func(s *sim.CPUStats) uint64 { return s.FalseShareMisses }))
	fmt.Printf("  bus utilization %.0f%% (data %.1fM, writeback %.1fM, upgrade %.1fM cycles)\n",
		100*res.BusUtilization(), float64(res.Bus.DataCycles)/1e6,
		float64(res.Bus.WritebackCycles)/1e6, float64(res.Bus.UpgradeCycles)/1e6)

	if len(res.SliceMisses) > 0 {
		var st uint64
		for _, n := range res.SliceMisses {
			st += n
		}
		fmt.Printf("  slice split    ")
		for s, n := range res.SliceMisses {
			p := 0.0
			if st > 0 {
				p = 100 * float64(n) / float64(st)
			}
			fmt.Printf(" s%d=%d (%.1f%%)", s, n, p)
		}
		fmt.Println()
	}
	if pf := tot(func(s *sim.CPUStats) uint64 { return s.PrefetchesIssued }); pf > 0 {
		fmt.Printf("  prefetches      %d issued, %d dropped on TLB miss, %d demand hits on in-flight lines\n",
			pf,
			tot(func(s *sim.CPUStats) uint64 { return s.PrefetchesDropped }),
			tot(func(s *sim.CPUStats) uint64 { return s.PrefetchedHits }))
	}
	if res.HintedFaults > 0 {
		fmt.Printf("\nCDPC hints: %d faults hinted, %d honored (%.0f%%)\n",
			res.HintedFaults, res.HonoredHints, 100*float64(res.HonoredHints)/float64(res.HintedFaults))
	}
}
