package repro

import (
	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Program is an application in the affine loop-nest IR.
type Program = ir.Program

// Array is one program data structure.
type Array = ir.Array

// Nest is a loop nest (outer distributed loop + inner loop + accesses).
type Nest = ir.Nest

// Access is an affine array reference.
type Access = ir.Access

// Phase is a weighted steady-state region.
type Phase = ir.Phase

// Schedule is a static parallel-loop schedule.
type Schedule = ir.Schedule

// Load and Store are the access kinds; Blocked and Even the partition
// policies (§5.1).
const (
	Load    = ir.Load
	Store   = ir.Store
	Blocked = ir.Blocked
	Even    = ir.Even
)

// MachineConfig describes the simulated hardware.
type MachineConfig = arch.Config

// BaseMachine returns the paper's SimOS configuration (§3.2) scaled by
// 1/scale.
func BaseMachine(ncpu, scale int) MachineConfig { return arch.Base(ncpu, scale) }

// AlphaMachine returns the AlphaServer 8400 validation configuration
// (§7) scaled by 1/scale.
func AlphaMachine(ncpu, scale int) MachineConfig { return arch.Alpha(ncpu, scale) }

// Summary is the compiler's access-pattern summary (§5.1): array
// partitionings, communication patterns and group-access pairs.
type Summary = compiler.Summary

// Hints is the CDPC output: per-page preferred colors and the page
// ordering used for touch-order emulation.
type Hints = core.Hints

// CompileOptions controls the compiler pipeline.
type CompileOptions struct {
	// Unaligned disables the §5.4 alignment and padding pass.
	Unaligned bool
	// Prefetch runs the §6.2 prefetch-insertion pass.
	Prefetch bool
}

// Compile lays out the program's data for the machine, optionally
// inserts prefetches, and returns the access-pattern summary. It must
// run before ComputeHints or Simulate.
func Compile(p *Program, m MachineConfig, opts CompileOptions) (*Summary, error) {
	layout := compiler.DefaultLayout(m.Topo().LLC().Geom.LineSize, m.L1D.Size, m.PageSize)
	if opts.Unaligned {
		layout.Align = false
		layout.Pad = false
	}
	if err := compiler.Layout(p, layout); err != nil {
		return nil, err
	}
	if opts.Prefetch {
		compiler.InsertPrefetches(p, compiler.DefaultPrefetch())
	}
	return compiler.Summarize(p), nil
}

// ComputeHints runs the five-step CDPC algorithm (§5.2) for a compiled
// program on the given machine.
func ComputeHints(p *Program, s *Summary, m MachineConfig) (*Hints, error) {
	return core.ComputeHints(p, s, core.Params{
		NumCPUs:   m.NumCPUs,
		NumColors: m.Colors(),
		PageSize:  m.PageSize,
	})
}

// Policy names for Simulate.
type Policy string

// The page mapping policies of §2.1.
const (
	// PolicyPageColoring maps consecutive virtual pages to consecutive
	// colors (IRIX).
	PolicyPageColoring Policy = "page-coloring"
	// PolicyBinHopping cycles colors in fault order (Digital UNIX).
	PolicyBinHopping Policy = "bin-hopping"
)

// SimOptions configures a simulation.
type SimOptions struct {
	Policy Policy
	// Hints, if non-nil, is installed via the madvise-like interface.
	Hints *Hints
	// TouchOrder, if true with Hints set, realizes the hints by touching
	// pages in order over bin hopping (the Digital UNIX path, §5.3).
	TouchOrder bool
}

// Result is a simulation outcome; see its methods for MCPI, bus
// utilization and the Figure 2 cycle breakdowns.
type Result = sim.Result

// CPUStats is one processor's cycle accounting.
type CPUStats = sim.CPUStats

// Simulate runs a compiled program on the machine.
func Simulate(p *Program, m MachineConfig, opts SimOptions) (*Result, error) {
	po := sim.ProcessOptions{Source: sim.ProgramSource(p)}
	colors := m.Colors()
	switch opts.Policy {
	case PolicyBinHopping:
		po.Policy = &vm.BinHopping{Colors: colors}
	default:
		po.Policy = vm.PageColoring{Colors: colors}
	}
	if opts.Hints != nil {
		if opts.TouchOrder {
			po.Policy = &vm.BinHopping{Colors: colors}
			po.TouchOrder = opts.Hints.Order
		} else {
			po.Hints = opts.Hints.Colors
		}
	}
	m2, err := sim.New(sim.Options{Config: m})
	if err != nil {
		return nil, err
	}
	return m2.Run(po)
}

// Spec and Run are the one-call experiment path (delegating to the
// internal harness used by cmd/experiments).
type Spec = harness.Spec

// Variant selects the page mapping configuration for Run.
type Variant = harness.Variant

// The variants the paper compares (Figures 6–9).
const (
	PageColoring        = harness.PageColoring
	BinHopping          = harness.BinHopping
	BinHoppingUnaligned = harness.BinHoppingUnaligned
	CDPC                = harness.CDPC
	CDPCTouch           = harness.CDPCTouch
	ColoringTouch       = harness.ColoringTouch
	DynamicRecoloring   = harness.DynamicRecoloring
	PaddedColoring      = harness.PaddedColoring
	PaddedBinHopping    = harness.PaddedBinHopping
)

// RunProgram executes a custom program (e.g. parsed from the text
// format) under the spec's machine and variant.
func RunProgram(p *Program, s Spec) (*Result, error) { return harness.RunProgram(p, s) }

// ParseProgram reads a program in the text format (see
// examples/progfile/solver.cdp for the grammar by example).
func ParseProgram(src string) (*Program, error) { return ir.ParseString(src) }

// FormatProgram renders a program in the text format.
func FormatProgram(p *Program) string { return ir.Format(p) }

// Run executes one workload/machine/policy specification end to end.
func Run(s Spec) (*Result, error) { return harness.Run(s) }

// Workload describes one bundled SPEC95fp-analog program.
type Workload = workloads.Meta

// Workloads lists the ten bundled SPEC95fp-analog workloads.
func Workloads() []Workload { return workloads.Registry() }

// WorkloadByName returns the named bundled workload.
func WorkloadByName(name string) (Workload, error) { return workloads.ByName(name) }

// DefaultScale is the default machine/data scaling divisor (1/16).
const DefaultScale = workloads.DefaultScale
