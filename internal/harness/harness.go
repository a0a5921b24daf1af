package harness

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Variant selects the page mapping configuration under test.
type Variant string

// The variants the paper compares.
const (
	// PageColoring is IRIX's native policy (§2.1).
	PageColoring Variant = "page-coloring"
	// BinHopping is Digital UNIX's native policy (§2.1).
	BinHopping Variant = "bin-hopping"
	// BinHoppingUnaligned is bin hopping with data structures neither
	// aligned nor padded (the fourth bar of Figure 9).
	BinHoppingUnaligned Variant = "bin-hopping-unaligned"
	// CDPC installs compiler hints through the madvise-style kernel
	// interface over a page-coloring fallback (the IRIX implementation,
	// §5.3).
	CDPC Variant = "cdpc"
	// CDPCTouch realizes CDPC by touching pages in hint order on top of
	// bin hopping, with all faults serialized at startup (the Digital
	// UNIX implementation, §5.3).
	CDPCTouch Variant = "cdpc-touch"
	// ColoringTouch realizes page coloring the same way: pages touched in
	// ascending virtual order over bin hopping (used for Figure 9, where
	// both non-native policies are emulated this way on the AlphaServer).
	ColoringTouch Variant = "coloring-touch"
	// DynamicRecoloring is the run-time alternative of §2.1/§2.2: page
	// coloring plus miss-counter conflict detection and page moves, with
	// the multiprocessor costs the paper predicts (copy, TLB shootdowns,
	// invalidations). An extension study — the paper notes this had not
	// been evaluated on multiprocessors.
	DynamicRecoloring Variant = "dynamic-recoloring"
	// PaddedColoring is the §2.2 compiler padding baseline over page
	// coloring: array starts staggered across the external cache in the
	// virtual address space, which coloring faithfully transfers to the
	// physical cache.
	PaddedColoring Variant = "padded-coloring"
	// PaddedBinHopping is the same padding over bin hopping, where the
	// paper predicts page-sized pads are ineffective (§2.2).
	PaddedBinHopping Variant = "padded-bin-hopping"
	// FirstTouch is the unmodified-OS baseline (§2): no color preference
	// at all, each fault takes whatever frame heads the free list. Under
	// multiprogramming this is the policy co-runners degrade hardest,
	// because exited processes' frames are reused in arbitrary colors.
	FirstTouch Variant = "first-touch"
)

// Variants lists all supported variants.
func Variants() []Variant {
	return []Variant{PageColoring, BinHopping, BinHoppingUnaligned, CDPC, CDPCTouch, ColoringTouch, DynamicRecoloring, PaddedColoring, PaddedBinHopping, FirstTouch}
}

// SchedKind selects the space-sharing discipline for multiprocess runs.
type SchedKind string

// The scheduling disciplines (see sim.SchedPolicy).
const (
	// SchedTimeSlice gang-schedules processes round-robin on the whole
	// machine, flushing the virtually indexed per-CPU state at each
	// switch. The default.
	SchedTimeSlice SchedKind = "timeslice"
	// SchedPartition gives each process an equal contiguous block of
	// CPUs for its whole lifetime.
	SchedPartition SchedKind = "partition"
)

// canCoSchedule reports whether a variant can run under the
// space-sharing scheduler. Variants built on machine-wide mechanisms —
// a global touch order serializing first faults, or the dynamic
// recolorer watching one address space — have no per-process meaning.
func canCoSchedule(v Variant) bool {
	switch v {
	case CDPCTouch, ColoringTouch, DynamicRecoloring:
		return false
	}
	return true
}

// CoRunner describes one additional process co-scheduled with a Spec's
// primary workload. Zero fields inherit from the primary spec, so
// CoRunner{} co-runs a second instance of the same workload and
// variant — except Domain, which is never inherited: an isolation
// domain is an identity, not a configuration default.
type CoRunner struct {
	Workload string
	Variant  Variant
	// Domain is the co-runner's isolation domain label under
	// Spec.Isolate; equal labels > 0 share a partition, 0 means a domain
	// of the co-runner's own.
	Domain int
}

// TraceWorkload is an external reference trace packaged as a runnable
// workload: a decoded binary trace plus a label for results. Build one
// with NewTraceWorkload so the content hash — the scheduler's memo key
// and the server's trace identifier — is computed once up front.
type TraceWorkload struct {
	// Name labels the trace in results (typically the source file name
	// or the server's content address).
	Name string
	// File is the decoded binary trace (see internal/trace).
	File *trace.File

	// hash caches File's content address.
	hash string
}

// NewTraceWorkload wraps a decoded trace under a result label.
func NewTraceWorkload(name string, f *trace.File) *TraceWorkload {
	return &TraceWorkload{Name: name, File: f, hash: f.Hash()}
}

// contentHash returns the trace's content address, computing it on the
// fly for zero-value construction (NewTraceWorkload precomputes).
func (t *TraceWorkload) contentHash() string {
	if t.hash != "" {
		return t.hash
	}
	return t.File.Hash()
}

// canTraceVariant reports whether a variant works on an external
// trace. A trace fixes the virtual address of every reference, so only
// variants that steer physical placement at fault time qualify; the
// ones needing the compiler — layout transforms (padding, unaligned),
// hint-ordered touching, virtual-order touching — cannot apply. The
// CDPC variant qualifies through the online access-pattern summarizer
// (trace.PreferredColors), which infers the per-page color preferences
// the compiler summary would have carried.
func canTraceVariant(v Variant) bool {
	switch v {
	case "", PageColoring, BinHopping, FirstTouch, CDPC, DynamicRecoloring:
		return true
	}
	return false
}

// MachineKind selects a machine preset.
type MachineKind string

// Machine presets.
const (
	// BaseMachine is the SimOS configuration of §3.2.
	BaseMachine MachineKind = "base"
	// AlphaMachine is the AlphaServer 8400 configuration of §7.
	AlphaMachine MachineKind = "alpha"
)

// Spec describes one simulation run.
type Spec struct {
	Workload string
	Scale    int // machine+data scale divisor; 0 → workloads.DefaultScale
	CPUs     int
	Machine  MachineKind // "" → base
	Variant  Variant     // "" → page coloring
	Prefetch bool        // compiler-inserted prefetching (§6.2)

	// Trace, when non-nil, runs an external reference trace instead of
	// a bundled IR workload; Workload is then only a fallback label and
	// no compiler pipeline runs. CPUs defaults to the trace's own CPU
	// count and must be at least that wide. Only placement-time variants
	// apply (canTraceVariant); co-runners and prefetching are rejected,
	// and sampling is normalized back to full fidelity. The scheduler
	// memoizes trace-backed specs by the trace's content hash.
	Trace *TraceWorkload

	// L2Override replaces the external-cache geometry (Figure 7 sweeps).
	L2Override *arch.CacheGeometry

	// Topology selects a named cache topology (arch.TopologyNames) to
	// install over the resolved machine: "" or "default" keeps the
	// classic single shared-level model, other names reshape the external
	// hierarchy (clustered mid-level caches, sliced LLCs). Applied after
	// L2Override, so geometry sweeps compose — the topology builders
	// derive their level sizes from the overridden cfg.L2. Unknown names
	// are rejected by every Run entry point.
	Topology string

	// ConfigOverride replaces the whole machine configuration (custom
	// machines loaded from JSON); Machine/Scale/CPUs are then ignored
	// except that NumCPUs is taken from the override.
	ConfigOverride *arch.Config

	// CDPCOptions selects algorithm ablations (bench_ablation).
	CDPCOptions core.Options
	// DisableClassification turns off conflict/capacity splitting.
	DisableClassification bool

	// Obs, when non-nil, collects miss attribution and the structured
	// event stream during the run (see internal/obs). Observation never
	// changes the Result. The scheduler's memo cache ignores this field
	// and runs instrumented specs directly, so a memoized result can
	// never stand in for a run that was supposed to fill a collector.
	Obs *obs.Collector

	// Sampled requests phase-sampled execution: representative windows
	// per nest with functional warm-up, clustered by the compiler's
	// access-pattern signatures and extrapolated to full-run statistics
	// (sim.Machine.RunSampled). Specs with a SampleConflict are
	// normalized back to full fidelity by withDefaults; callers that
	// must reject instead (the server's explicit "sampled" requests)
	// check SampleConflict first.
	Sampled bool

	// CoRunners lists additional processes co-scheduled with the primary
	// workload. Non-empty CoRunners selects the multiprogramming
	// methodology (no warm-up discard, phases once, unweighted); Run
	// returns such a mix's machine total, RunMulti every process's
	// result as well.
	CoRunners []CoRunner
	// Sched selects the space-sharing discipline for multiprocess runs
	// ("" → time-slicing). Check rejects it without co-runners.
	Sched SchedKind
	// Quantum overrides the time-slice length in cycles; 0 uses
	// sim.DefaultQuantum. Check rejects it without co-runners.
	Quantum uint64

	// Isolate runs the process mix under color-partitioned isolation
	// domains: the frame allocator grants each domain an exclusive color
	// subset and clamps every allocation (policy preference, CDPC hint,
	// pressure fallback) to the owner's partition, making cross-domain
	// conflict misses impossible (audit invariant 12). Check rejects it
	// without co-runners; unpartitioned runs are byte-identical with this
	// off.
	Isolate bool
	// Domain is the primary process's isolation domain label under
	// Isolate (see CoRunner.Domain); 0 means a domain of its own. Every
	// label lies in [0, processes].
	Domain int
}

// processSpecs expands a spec into one derived Spec per process: the
// primary first, then each co-runner with unset fields inherited from
// the primary. All processes share the machine configuration and scale.
func (s Spec) processSpecs() []Spec {
	s = s.withDefaults()
	out := make([]Spec, 0, 1+len(s.CoRunners))
	primary := s
	primary.CoRunners = nil
	primary.Obs = nil
	out = append(out, primary)
	for _, cr := range s.CoRunners {
		ps := primary
		if cr.Workload != "" {
			ps.Workload = cr.Workload
		}
		if cr.Variant != "" {
			ps.Variant = cr.Variant
		}
		// Domain is never inherited: a zero co-runner domain means "own
		// domain", not "the primary's domain".
		ps.Domain = cr.Domain
		out = append(out, ps)
	}
	return out
}

func (s Spec) withDefaults() Spec {
	if s.Scale == 0 {
		s.Scale = workloads.DefaultScale
	}
	if s.CPUs == 0 {
		if s.Trace != nil {
			s.CPUs = s.Trace.File.NumCPUs()
		} else {
			s.CPUs = 1
		}
	}
	if s.Machine == "" {
		s.Machine = BaseMachine
	}
	if s.Variant == "" {
		s.Variant = PageColoring
	}
	if s.Sampled && SampleConflict(s) != nil {
		s.Sampled = false
	}
	return s
}

// SampleConflict is the one rule for when a spec can run phase-sampled:
// nil if it can, otherwise an error naming the first field that needs
// the full reference stream.
func SampleConflict(s Spec) error {
	switch {
	case s.Obs != nil:
		return errors.New("attribution and event tracing need the full reference trace")
	case len(s.CoRunners) > 0:
		return errors.New("co-scheduled runs share a timeline no window can be cut out of")
	case s.Variant == DynamicRecoloring:
		return errors.New("dynamic recoloring reacts to per-page miss counts a sampled run skips")
	case s.Trace != nil:
		return errors.New("traces have no phase structure to sample")
	}
	return nil
}

// Rule classifies the combination rule a SpecError reports.
type Rule int

// The rule classes Check enforces.
const (
	// RuleName: a machine, variant, topology, scheduling discipline or
	// co-runner workload that does not exist.
	RuleName Rule = iota + 1
	// RuleCoSchedule: Sched or Quantum without co-runners, a partition
	// that does not divide the CPUs evenly, a variant that needs
	// machine-wide state in a mix, or co-runners on a custom program.
	RuleCoSchedule
	// RuleIsolation: Isolate or Domain without co-runners, a domain label
	// without Isolate, or a label outside [0, processes].
	RuleIsolation
	// RuleTrace: a trace-backed spec with co-runners, prefetching, a
	// variant that needs the compiler, or fewer CPUs than the trace has
	// streams.
	RuleTrace
)

// SpecError is Check's rejection: the Spec field path the broken rule
// names (for example "CoRunners[1].Variant") and the rule's class, so a
// caller can map every rejection to its own error vocabulary without a
// copy of the rules.
type SpecError struct {
	Field string
	Rule  Rule
	Msg   string
}

func (e *SpecError) Error() string { return "harness: " + e.Field + ": " + e.Msg }

// Check is the one home of the spec-combination rules: which names
// exist, and which variants combine with traces, co-scheduling and
// isolation domains. It returns nil or a *SpecError for the first broken
// rule. Every Run entry point, the Scheduler and Prepare call it once on
// the whole spec, before anything compiles; RunProgram calls
// CheckProgram. The primary Workload name is Prepare's check, because
// RunProgram ignores that field.
func Check(s Spec) error {
	s = s.withDefaults()
	reject := func(field string, rule Rule, format string, args ...any) error {
		return &SpecError{Field: field, Rule: rule, Msg: fmt.Sprintf(format, args...)}
	}
	coField := func(i int, name string) string { return fmt.Sprintf("CoRunners[%d].%s", i, name) }

	switch s.Machine {
	case BaseMachine, AlphaMachine:
	default:
		return reject("Machine", RuleName, "unknown machine %q (base, alpha)", s.Machine)
	}
	if !slices.Contains(Variants(), s.Variant) {
		return reject("Variant", RuleName, "unknown variant %q", s.Variant)
	}
	if !arch.KnownTopology(s.Topology) {
		return reject("Topology", RuleName, "unknown topology %q (have %s)",
			s.Topology, strings.Join(arch.TopologyNames(), ", "))
	}
	switch s.Sched {
	case "", SchedTimeSlice, SchedPartition:
	default:
		return reject("Sched", RuleName, "unknown scheduling discipline %q (timeslice, partition)", s.Sched)
	}

	cpus := s.CPUs
	if s.ConfigOverride != nil {
		cpus = s.ConfigOverride.NumCPUs
	}
	if s.Trace != nil {
		switch n := s.Trace.File.NumCPUs(); {
		case len(s.CoRunners) > 0:
			return reject("CoRunners", RuleTrace, "a trace is one process and cannot be co-scheduled")
		case s.Prefetch:
			return reject("Prefetch", RuleTrace, "prefetch insertion needs a compiled program; traces record their reference stream")
		case !canTraceVariant(s.Variant):
			return reject("Variant", RuleTrace, "variant %q needs compiler layout or touch-order output and cannot run an external trace", s.Variant)
		case n > cpus:
			return reject("CPUs", RuleTrace, "trace %q carries %d CPU streams but the machine has %d CPUs", s.Trace.Name, n, cpus)
		}
	}

	if len(s.CoRunners) == 0 {
		if s.Sched != "" || s.Quantum != 0 {
			return reject("Sched", RuleCoSchedule, "Sched and Quantum require co-runners")
		}
		if s.Isolate || s.Domain != 0 {
			return reject("Isolate", RuleIsolation, "Isolate and Domain require co-runners")
		}
		return nil
	}
	nprocs := 1 + len(s.CoRunners)
	if s.Sched == SchedPartition && (nprocs > cpus || cpus%nprocs != 0) {
		return reject("Sched", RuleCoSchedule, "partition scheduling needs %d CPUs divisible into %d equal blocks", cpus, nprocs)
	}
	const machineWide = "variant %q needs machine-wide state and cannot be co-scheduled"
	if !canCoSchedule(s.Variant) {
		return reject("Variant", RuleCoSchedule, machineWide, s.Variant)
	}
	for i, cr := range s.CoRunners {
		if cr.Variant != "" {
			if !slices.Contains(Variants(), cr.Variant) {
				return reject(coField(i, "Variant"), RuleName, "unknown variant %q", cr.Variant)
			}
			if !canCoSchedule(cr.Variant) {
				return reject(coField(i, "Variant"), RuleCoSchedule, machineWide, cr.Variant)
			}
		}
		if cr.Workload != "" {
			if _, err := workloads.ByName(cr.Workload); err != nil {
				return reject(coField(i, "Workload"), RuleName, "%v", err)
			}
		}
	}

	domain := func(field string, d int) error {
		switch {
		case d != 0 && !s.Isolate:
			return reject(field, RuleIsolation, "a domain label requires Isolate")
		case d < 0 || d > nprocs:
			return reject(field, RuleIsolation, "domain %d out of range [0, %d]", d, nprocs)
		}
		return nil
	}
	if err := domain("Domain", s.Domain); err != nil {
		return err
	}
	for i, cr := range s.CoRunners {
		if err := domain(coField(i, "Domain"), cr.Domain); err != nil {
			return err
		}
	}
	return nil
}

// CheckProgram is Check for a spec that runs a custom program in place
// of its Workload, as RunProgram does: on top of Check's rules, a
// custom program runs alone, so co-runners are rejected.
func CheckProgram(s Spec) error {
	if err := Check(s); err != nil {
		return err
	}
	if len(s.CoRunners) > 0 {
		return &SpecError{Field: "CoRunners", Rule: RuleCoSchedule, Msg: "custom programs cannot be co-scheduled; use bundled workloads"}
	}
	return nil
}

// Config resolves the machine configuration for a spec. An unknown
// Topology name is ignored here (Config cannot error); the Run entry
// points reject it through Check first.
func (s Spec) Config() arch.Config {
	s = s.withDefaults()
	var cfg arch.Config
	if s.ConfigOverride != nil {
		cfg = *s.ConfigOverride
	} else {
		if s.Machine == AlphaMachine {
			cfg = arch.Alpha(s.CPUs, s.Scale)
		} else {
			cfg = arch.Base(s.CPUs, s.Scale)
		}
		if s.L2Override != nil {
			cfg = cfg.WithL2(*s.L2Override)
		}
	}
	if s.Topology != "" && s.Topology != "default" {
		if c, err := arch.ApplyTopology(cfg, s.Topology); err == nil {
			cfg = c
		}
	}
	return cfg
}

// Prepare builds the workload program and runs the compiler pipeline for
// a spec, returning the program, its summary, and the machine config.
func Prepare(s Spec) (*ir.Program, *compiler.Summary, arch.Config, error) {
	if err := Check(s); err != nil {
		return nil, nil, arch.Config{}, err
	}
	return compile(s)
}

// compile is Prepare without Check, for specs execute has already
// checked whole: a co-runner's derived spec carries the mix-level fields
// (Sched, Isolate, Domain) that Check rejects on a lone spec.
func compile(s Spec) (*ir.Program, *compiler.Summary, arch.Config, error) {
	s = s.withDefaults()
	meta, err := workloads.ByName(s.Workload)
	if err != nil {
		return nil, nil, arch.Config{}, err
	}
	return lower(meta.Build(s.Scale), s)
}

// lower runs the compiler pipeline over a built program: the variant's
// layout, then prefetch insertion when the spec asks for it.
func lower(prog *ir.Program, s Spec) (*ir.Program, *compiler.Summary, arch.Config, error) {
	cfg := s.Config()
	if err := compiler.Layout(prog, layoutFor(s.Variant, cfg)); err != nil {
		return nil, nil, arch.Config{}, err
	}
	if s.Prefetch {
		compiler.InsertPrefetches(prog, compiler.DefaultPrefetch())
	}
	return prog, compiler.Summarize(prog), cfg, nil
}

// Run executes one spec end to end and returns its result; for a spec
// with co-runners that is the machine total (RunMulti also returns each
// process's own result).
func Run(s Spec) (*sim.Result, error) {
	return RunCtx(context.Background(), s)
}

// RunCtx is Run with cancellation: ctx is polled at region boundaries
// inside the simulator, so a canceled or expired context aborts the
// simulation at the next synchronization point with ctx's error. The
// cdpcd server threads every request's context through here.
func RunCtx(ctx context.Context, s Spec) (*sim.Result, error) {
	mr, err := execute(ctx, s, compile)
	if err != nil {
		return nil, err
	}
	return mr.Total, nil
}

// RunMulti executes a spec and its co-runners as one multiprogrammed
// machine under the spec's space-sharing discipline; a solo spec is a
// mix of one.
func RunMulti(s Spec) (*sim.MultiResult, error) {
	return RunMultiCtx(context.Background(), s)
}

// RunMultiCtx is RunMulti with cancellation (see RunCtx). Every process
// is prepared through the regular compiler pipeline; placement policy
// and CDPC hints are installed per process, and all processes draw
// frames from the machine's single shared allocator. Check rejects
// variants that need machine-wide mechanisms (touch ordering, dynamic
// recoloring) in a mix; trace-backed specs are rejected here.
func RunMultiCtx(ctx context.Context, s Spec) (*sim.MultiResult, error) {
	if s.Trace != nil {
		return nil, errTraceMix
	}
	return execute(ctx, s, compile)
}

// errTraceMix rejects trace-backed specs at the RunMulti entry points:
// a recorded trace is one process and has no per-process breakdown.
var errTraceMix = errors.New("harness: trace-backed specs are single-process; use Run")

// prepareFunc resolves a checked spec's compiled program: compile, or a
// Scheduler's memoizing program cache.
type prepareFunc func(Spec) (*ir.Program, *compiler.Summary, arch.Config, error)

// execute is the one execution path behind every Run entry point and
// the Scheduler. It checks the whole spec, then decides its shape once:
// co-runners run as a multiprogrammed mix (runMix); a solo spec —
// bundled workload or external trace — runs alone and comes back as a
// mix of one, the shape sim.RunProcesses gives a single process.
func execute(ctx context.Context, s Spec, prepare prepareFunc) (*sim.MultiResult, error) {
	if err := Check(s); err != nil {
		return nil, err
	}
	s = s.withDefaults()
	if len(s.CoRunners) > 0 {
		return runMix(ctx, s, prepare)
	}
	res, err := runSolo(ctx, s, prepare)
	if err != nil {
		return nil, err
	}
	return &sim.MultiResult{Sched: sim.SchedTimeSlice.String(), PerProcess: []*sim.Result{res}, Total: res}, nil
}

// runSolo runs a spec without co-runners: an external trace, or a
// bundled workload through the compiler pipeline.
func runSolo(ctx context.Context, s Spec, prepare prepareFunc) (*sim.Result, error) {
	if s.Trace != nil {
		return runTrace(ctx, s)
	}
	prog, sum, cfg, err := prepare(s)
	if err != nil {
		return nil, err
	}
	return runPrepared(ctx, prog, sum, cfg, s)
}

// simOptions returns the machine options a spec runs under on machine
// cfg; the variant's placement goes into the process (variantOptions).
func (s Spec) simOptions(ctx context.Context, cfg arch.Config) sim.Options {
	opts := sim.Options{Config: cfg, DisableClassification: s.DisableClassification, Obs: s.Obs}
	if ctx.Done() != nil {
		// Only contexts that can actually be canceled pay for the
		// region-boundary poll; Background keeps the serial path untouched.
		opts.Cancel = ctx.Err
	}
	return opts
}

// runTrace executes a trace-backed spec: no compiler pipeline runs; the
// variant resolves to its placement policy directly, and the CDPC
// variant substitutes the online access-pattern summarizer
// (trace.PreferredColors) for the compiler's per-page color summary —
// CDPC without the compiler.
func runTrace(ctx context.Context, s Spec) (*sim.Result, error) {
	cfg := s.Config()
	po, err := variantOptions(s, cfg, nil, func() (*core.Hints, error) {
		return &core.Hints{Colors: trace.PreferredColors(s.Trace.File, cfg.PageSize, cfg.Colors(), 0)}, nil
	})
	if err != nil {
		return nil, err
	}
	po.Source = sim.NewTraceSource(s.Trace.Name, s.Trace.File)
	m, err := sim.New(s.simOptions(ctx, cfg))
	if err != nil {
		return nil, err
	}
	res, err := m.Run(po)
	if err != nil {
		return nil, err
	}
	res.Policy = s.label()
	return res, nil
}

// RunProgram executes a custom (e.g. text-format) program under the
// spec's machine and variant; the Workload field is ignored. The program
// goes through the same compiler pipeline as the bundled workloads.
func RunProgram(prog *ir.Program, s Spec) (*sim.Result, error) {
	return RunProgramCtx(context.Background(), prog, s)
}

// RunProgramCtx is RunProgram with cancellation (see RunCtx). A custom
// program runs alone; CheckProgram rejects co-runners.
func RunProgramCtx(ctx context.Context, prog *ir.Program, s Spec) (*sim.Result, error) {
	if err := CheckProgram(s); err != nil {
		return nil, err
	}
	s = s.withDefaults()
	prog, sum, cfg, err := lower(prog, s)
	if err != nil {
		return nil, err
	}
	return runPrepared(ctx, prog, sum, cfg, s)
}

// variantOptions is the one variant→placement table, shared by solo
// programs, co-scheduled processes and trace replays: it returns the
// process's placement, its Source left for the caller to fill in. hints
// supplies the CDPC page colors and touch order — the compiler
// summary's for a program (programOptions), the online summarizer's
// for a trace — and is called only by the variants that consume them.
// prog is nil for traces, whose variants (canTraceVariant) never need
// it.
func variantOptions(s Spec, cfg arch.Config, prog *ir.Program, hints func() (*core.Hints, error)) (sim.ProcessOptions, error) {
	var po sim.ProcessOptions
	colors := cfg.Colors()

	var h *core.Hints
	if s.Variant == CDPC || s.Variant == CDPCTouch {
		var err error
		if h, err = hints(); err != nil {
			return po, err
		}
	}

	switch s.Variant {
	case PageColoring:
		po.Policy = vm.PageColoring{Colors: colors}
	case BinHopping, BinHoppingUnaligned:
		po.Policy = &vm.BinHopping{Colors: colors}
	case CDPC:
		po.Policy = vm.PageColoring{Colors: colors} // fallback for unhinted pages
		po.Hints = h.Colors
	case CDPCTouch:
		po.Policy = &vm.BinHopping{Colors: colors}
		po.TouchOrder = h.Order
	case ColoringTouch:
		po.Policy = &vm.BinHopping{Colors: colors}
		po.TouchOrder = ascendingDataPages(prog, cfg.PageSize)
	case DynamicRecoloring:
		po.Policy = vm.PageColoring{Colors: colors}
		policy := vm.DefaultRecolorPolicy()
		po.Recolor = &policy
	case PaddedColoring:
		po.Policy = vm.PageColoring{Colors: colors}
	case PaddedBinHopping:
		po.Policy = &vm.BinHopping{Colors: colors}
	case FirstTouch:
		// The allocator does not exist yet; the simulator binds it when
		// it builds the process.
		po.Policy = &vm.FirstTouch{}
	default:
		return po, fmt.Errorf("harness: unknown variant %q", s.Variant)
	}
	return po, nil
}

// programOptions is the process that runs a compiled program under the
// spec's variant, its CDPC hints computed from the compiler's summary,
// in the spec's isolation domain (always 0 for a solo spec).
func programOptions(prog *ir.Program, sum *compiler.Summary, cfg arch.Config, s Spec) (sim.ProcessOptions, error) {
	po, err := variantOptions(s, cfg, prog, func() (*core.Hints, error) {
		return compilerHints(prog, sum, cfg, s)
	})
	po.Source, po.Domain = sim.ProgramSource(prog), s.Domain
	return po, err
}

// compilerHints runs the CDPC algorithm over a prepared program.
func compilerHints(prog *ir.Program, sum *compiler.Summary, cfg arch.Config, s Spec) (*core.Hints, error) {
	return core.ComputeHintsOpt(prog, sum, core.Params{
		NumCPUs:   cfg.NumCPUs,
		NumColors: cfg.Colors(),
		PageSize:  cfg.PageSize,
	}, s.CDPCOptions)
}

// runPrepared runs a prepared program alone on the machine under the
// spec's variant, phase-sampled when the spec asks.
func runPrepared(ctx context.Context, prog *ir.Program, sum *compiler.Summary, cfg arch.Config, s Spec) (*sim.Result, error) {
	po, err := programOptions(prog, sum, cfg, s)
	if err != nil {
		return nil, err
	}
	m, err := sim.New(s.simOptions(ctx, cfg))
	if err != nil {
		return nil, err
	}
	var res *sim.Result
	if s.Sampled {
		res, err = m.RunSampled(po, samplingClusters(prog))
	} else {
		res, err = m.Run(po)
	}
	if err != nil {
		return nil, err
	}
	res.Policy = s.label()
	return res, nil
}

// label is the policy name a spec's Result carries: the variant's name,
// which the address space's PolicyName would collapse (CDPC into its
// fallback policy), marked "+pf" under compiler prefetching.
func (s Spec) label() string {
	if s.Prefetch {
		return string(s.Variant) + "+pf"
	}
	return string(s.Variant)
}

// runMix runs a spec with co-runners as one multiprogrammed machine.
func runMix(ctx context.Context, s Spec, prepare prepareFunc) (*sim.MultiResult, error) {
	list := s.processSpecs()
	procs := make([]sim.ProcessOptions, len(list))
	for i, ps := range list {
		prog, sum, cfg, err := prepare(ps)
		if err != nil {
			return nil, err
		}
		if procs[i], err = programOptions(prog, sum, cfg, ps); err != nil {
			return nil, err
		}
	}
	opts := s.simOptions(ctx, s.Config())
	opts.Isolate = s.Isolate
	m, err := sim.New(opts)
	if err != nil {
		return nil, err
	}
	sched := sim.SchedOptions{Policy: sim.SchedTimeSlice, Quantum: s.Quantum}
	if s.Sched == SchedPartition {
		sched.Policy = sim.SchedPartition
	}
	mr, err := m.RunProcesses(procs, sched)
	if err != nil {
		return nil, err
	}
	variants := make([]string, len(list))
	for i, ps := range list {
		variants[i] = ps.label()
		mr.PerProcess[i].Policy = variants[i]
	}
	mr.Total.Policy = strings.Join(variants, "+")
	return mr, nil
}

// samplingClusters converts the compiler's access-pattern phase
// clustering into the simulator's representation. Layout has already
// run on prog (Prepare), so signatures key on final virtual placement.
func samplingClusters(prog *ir.Program) []sim.PhaseCluster {
	cc := compiler.ClusterPhases(prog)
	out := make([]sim.PhaseCluster, len(cc))
	for i, c := range cc {
		out[i] = sim.PhaseCluster{Rep: c.Rep, Members: c.Members}
	}
	return out
}

// ascendingDataPages lists every data page in virtual-address order: the
// touch order that reproduces page coloring on a bin-hopping kernel.
func ascendingDataPages(prog *ir.Program, pageSize int) []uint64 {
	var vpns []uint64
	ps := uint64(pageSize)
	for _, a := range prog.Arrays {
		for vpn := a.Base / ps; vpn*ps < a.EndAddr(); vpn++ {
			if len(vpns) > 0 && vpns[len(vpns)-1] == vpn {
				continue // arrays sharing a boundary page
			}
			vpns = append(vpns, vpn)
		}
	}
	return vpns
}

// Hints computes the CDPC hints for a spec without running the simulator
// (the access-map tool and algorithm examples use this).
func Hints(s Spec) (*core.Hints, *ir.Program, error) {
	s = s.withDefaults()
	prog, sum, cfg, err := Prepare(s)
	if err != nil {
		return nil, nil, err
	}
	h, err := compilerHints(prog, sum, cfg, s)
	if err != nil {
		return nil, nil, err
	}
	return h, prog, nil
}
