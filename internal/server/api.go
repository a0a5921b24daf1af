package server

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// This file defines the wire format of the cdpcd HTTP API: request and
// response JSON schemas, typed error codes, and request validation.
// API.md is the human-readable contract for everything here; the
// routes_test keeps the two in sync.

// JobRequest is the body of POST /v1/simulate and POST /v1/jobs. A
// request names either a bundled workload or carries a custom program
// in the text program format (see examples/progfile); the remaining
// fields select the machine and mapping policy exactly like the
// cdpcsim command-line flags of the same names.
type JobRequest struct {
	// Workload is a bundled SPEC95fp-analog name (GET /v1/workloads
	// lists them). Mutually exclusive with Program.
	Workload string `json:"workload,omitempty"`
	// Program is a custom workload in the text program format.
	// Program-carrying requests always simulate fresh (their IR is not
	// part of the memo key), so repeated custom jobs re-run.
	Program string `json:"program,omitempty"`
	// TraceID runs an uploaded binary reference trace (POST /v1/traces)
	// instead of a compiled workload. Mutually exclusive with Workload
	// and Program. Trace jobs support the placement-time variants only
	// (the cdpc variant substitutes the online access-pattern summarizer
	// for the compiler's color hints), always run full fidelity, and
	// cannot be co-scheduled or prefetched. Results are memo-cached by
	// the trace's content hash.
	TraceID string `json:"trace_id,omitempty"`
	// CPUs is the processor count (1–16); 0 means 8.
	CPUs int `json:"cpus,omitempty"`
	// Scale divides the paper's machine and data sizes; 0 means the
	// default 16. Accepted range 1–256.
	Scale int `json:"scale,omitempty"`
	// Machine is a preset: "base" (default) or "alpha".
	Machine string `json:"machine,omitempty"`
	// Topology reshapes the external cache hierarchy by name ("" or
	// "default" keeps the preset's single shared level; see MACHINES.md
	// for the shipped configurations). Applied after machine/scale
	// selection, exactly like the cdpcsim -topology flag.
	Topology string `json:"topology,omitempty"`
	// Variant is the page mapping configuration; "" means
	// "page-coloring".
	Variant string `json:"variant,omitempty"`
	// Prefetch enables compiler-inserted prefetching (§6.2).
	Prefetch bool `json:"prefetch,omitempty"`
	// Attr additionally collects per-color and per-page miss
	// attribution. Instrumented runs bypass the memo cache (the PR 2
	// rule: a cached result cannot have filled this run's collector),
	// so attr requests always cost a full simulation.
	Attr bool `json:"attr,omitempty"`
	// TimeoutMS caps this job's simulation time in milliseconds; 0 uses
	// the server default. Values above the server maximum are clamped.
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// Fidelity selects the simulation mode: "full" (every reference
	// detail-simulated) or "sampled" (representative windows per loop
	// nest, functional warm-up, statistics extrapolated by phase weight —
	// ~10x faster; MCPI within 2% of full fidelity at the 2-CPU
	// page-coloring shape ext-sampling measures, ~30% off on 8-16 CPU
	// fig6 and cdpc specs). Empty picks
	// the endpoint default: async jobs (POST /v1/jobs) run sampled when
	// the request is compatible, synchronous /v1/simulate runs full.
	// Attribution, co-scheduled, dynamic-recoloring and trace requests
	// cannot be sampled (harness.SampleConflict); asking for "sampled"
	// on one fails with bad_fidelity.
	Fidelity string `json:"fidelity,omitempty"`

	// CoRunners lists additional processes co-scheduled with the primary
	// workload on one multiprogrammed machine (all drawing frames from
	// the shared allocator). Each entry inherits unset fields from the
	// request, so `{}` co-runs a second instance of the same
	// workload/variant. Only bundled workloads can be co-scheduled.
	CoRunners []CoRunnerRequest `json:"co_runners,omitempty"`
	// Sched selects the space-sharing discipline for multiprocess jobs:
	// "timeslice" (default) or "partition". Requires co_runners.
	Sched string `json:"sched,omitempty"`
	// QuantumCycles overrides the time-slice length in cycles; 0 uses
	// the simulator default. Requires co_runners.
	QuantumCycles uint64 `json:"quantum_cycles,omitempty"`
	// Isolate color-partitions a multiprocess job: each isolation
	// domain allocates frames only from an exclusive page-color subset,
	// making cross-domain cache conflicts impossible (the result carries
	// isolated: true and cross_domain_conflicts: 0). Requires
	// co_runners.
	Isolate bool `json:"isolate,omitempty"`
	// IsolationDomain labels the primary process's isolation domain
	// under isolate: 0 (default) gives the process a domain of its own,
	// equal positive labels co-locate processes in one shared domain.
	// Requires isolate.
	IsolationDomain int `json:"isolation_domain,omitempty"`
}

// CoRunnerRequest describes one co-scheduled process of a multiprocess
// job. Empty fields inherit from the primary request — except
// isolation_domain, which is an identity, not a configuration default,
// and is never inherited.
type CoRunnerRequest struct {
	Workload string `json:"workload,omitempty"`
	Variant  string `json:"variant,omitempty"`
	// IsolationDomain labels this process's isolation domain under
	// isolate (same semantics as the primary's field).
	IsolationDomain int `json:"isolation_domain,omitempty"`
}

// JobState is the lifecycle state of a submitted job.
type JobState string

// The job lifecycle: Queued → Running → one of Done / Failed /
// Canceled. Sync jobs pass through the same states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobStatus is the body of GET /v1/jobs/{id} (and the 202 response of
// POST /v1/jobs, with only ID/State/Submitted populated).
type JobStatus struct {
	ID        string      `json:"id"`
	State     JobState    `json:"state"`
	Request   *JobRequest `json:"request,omitempty"`
	Submitted time.Time   `json:"submitted"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
	Result    *JobResult  `json:"result,omitempty"`
	Error     *ErrorInfo  `json:"error,omitempty"`
}

// JobList is the body of GET /v1/jobs.
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
}

// JobResult is the simulation outcome: the paper's headline statistics
// plus optional attribution. It is a summary of sim.Result, not a dump
// — per-CPU breakdowns stay behind the library API.
type JobResult struct {
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	Policy   string `json:"policy"`
	CPUs     int    `json:"cpus"`

	WallCycles     uint64  `json:"wall_cycles"`
	CombinedCycles uint64  `json:"combined_cycles"`
	MCPI           float64 `json:"mcpi"`
	BusUtilization float64 `json:"bus_utilization"`

	L2Misses       uint64 `json:"l2_misses"`
	ColdMisses     uint64 `json:"cold_misses"`
	ConflictMisses uint64 `json:"conflict_misses"`
	CapacityMisses uint64 `json:"capacity_misses"`
	SharingMisses  uint64 `json:"sharing_misses"`

	PageFaults   uint64 `json:"page_faults"`
	HintedFaults uint64 `json:"hinted_faults"`
	HonoredHints uint64 `json:"honored_hints"`

	// CrossDomainConflicts counts data misses that evicted a line owned
	// by another isolation domain (unpartitioned: another process) —
	// exactly zero when Isolated. Omitted on single-process jobs.
	CrossDomainConflicts uint64 `json:"cross_domain_conflicts,omitempty"`
	// Isolated reports that the job ran color-partitioned (isolate was
	// set and the allocator assigned per-domain color subsets).
	Isolated bool `json:"isolated,omitempty"`

	// Fidelity reports how the result was produced: "full" or "sampled"
	// (see JobRequest.Fidelity). A request that asked for sampled
	// execution but ran an incompatible spec would have been rejected at
	// validation, so this always reflects the effective mode.
	Fidelity string `json:"fidelity"`

	// Cached reports that this result was served from the scheduler's
	// memo cache rather than a fresh simulation.
	Cached bool `json:"cached"`
	// SimMS is the wall time the request spent simulating (≈0 when
	// Cached).
	SimMS float64 `json:"sim_ms"`

	// Sched is the space-sharing discipline of a multiprocess job
	// ("timeslice" or "partition"); empty on single-process jobs.
	Sched string `json:"sched,omitempty"`
	// Processes carries the per-process results of a multiprocess job in
	// process-table order (the top-level fields then describe the
	// machine total); empty on single-process jobs.
	Processes []JobResult `json:"processes,omitempty"`

	// Attribution is present when the request set attr.
	Attribution *Attribution `json:"attribution,omitempty"`
}

// Attribution is the obs-collector summary attached to attr requests.
type Attribution struct {
	// PerColorMisses is the total external-cache misses attributed to
	// each page color.
	PerColorMisses []uint64 `json:"per_color_misses"`
	// TopPages lists the hottest pages by miss count.
	TopPages []PageAttr `json:"top_pages"`
}

// PageAttr is one page's attribution record.
type PageAttr struct {
	// PID is the owning process of a multiprocess job's page (1-based
	// process-table order); 0 on single-process jobs.
	PID         int    `json:"pid,omitempty"`
	VPN         uint64 `json:"vpn"`
	Color       int    `json:"color"`
	Misses      uint64 `json:"misses"`
	Conflict    uint64 `json:"conflict_misses"`
	StallCycles uint64 `json:"stall_cycles"`
}

// ErrorInfo is the typed error payload carried inside ErrorResponse
// and inside failed jobs' status.
type ErrorInfo struct {
	// Code is a stable machine-readable identifier (see API.md for the
	// full table).
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
	// Field names the offending request field for validation errors.
	Field string `json:"field,omitempty"`
	// RetryAfterSec accompanies queue_full / shutting_down responses
	// and mirrors the Retry-After header.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error ErrorInfo `json:"error"`
}

// The error codes the API returns. Every non-2xx body carries exactly
// one of these in error.code.
const (
	CodeInvalidRequest  = "invalid_request"  // 400: malformed JSON or out-of-range field
	CodeUnknownWorkload = "unknown_workload" // 400: workload not in the registry
	CodeBadProgram      = "bad_program"      // 400: custom program failed to parse or validate
	CodeNotFound        = "not_found"        // 404: no such job (or route)
	CodeQueueFull       = "queue_full"       // 429: bounded queue at capacity
	CodeShuttingDown    = "shutting_down"    // 503: server draining, not accepting work
	CodeTimeout         = "timeout"          // job exceeded its deadline (job error, or 504 on sync)
	CodeCanceled        = "canceled"         // job canceled by DELETE or client disconnect
	CodeSimFailed       = "sim_failed"       // simulation returned an error
	CodeBadCoSchedule   = "bad_coschedule"   // 400: invalid co-runner list or scheduling discipline
	CodeBadIsolation    = "bad_isolation"    // 400: isolation fields on a non-co-scheduled job, or out-of-range isolation_domain
	CodeBadFidelity     = "bad_fidelity"     // 400: unknown fidelity, or sampled requested for an incompatible spec
	CodeBadTopology     = "bad_topology"     // 400: unknown cache topology name
	CodeBadTrace        = "bad_trace"        // 400: uploaded bytes are not a valid binary trace
	CodeTraceTooLarge   = "trace_too_large"  // 413: uploaded trace exceeds the size limit
	CodeUnknownTrace    = "unknown_trace"    // 400: trace_id not in the store (never uploaded, or evicted)
	CodeOutOfMemory     = "out_of_memory"    // simulated machine ran out of physical frames (job error)
	CodeInternal        = "internal"         // 500: handler panic or unexpected failure
)

// WorkloadsResponse is the body of GET /v1/workloads: everything a
// client needs to construct a valid JobRequest.
type WorkloadsResponse struct {
	Workloads  []WorkloadInfo `json:"workloads"`
	Variants   []string       `json:"variants"`
	Machines   []string       `json:"machines"`
	Topologies []string       `json:"topologies"`
}

// WorkloadInfo describes one bundled workload.
type WorkloadInfo struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	PaperDataMB float64 `json:"paper_data_mb"`
}

// maxScale bounds the accepted scale divisor; beyond this the scaled
// machine degenerates (fewer colors than CPUs).
const maxScale = 256

// maxCPUs mirrors the simulator's supported processor range.
const maxCPUs = 16

// maxProcs bounds the process table of a multiprocess job; beyond the
// paper-motivated 2- and 4-way mixes an 8-way mix already saturates the
// time-slice scheduler's interference effects.
const maxProcs = 8

// validate makes the wire and admission checks on a JobRequest and
// resolves it into a harness.Spec (and a parsed program for custom
// requests). Which names exist and which fields combine is
// harness.Check's decision (harness.CheckProgram's for a custom
// program); admit applies it once the trace id resolves. Validation is
// strict so that queue slots are never wasted on requests that cannot
// run.
func (req *JobRequest) validate() (harness.Spec, *ir.Program, *ErrorInfo) {
	var spec harness.Spec
	nsources := 0
	for _, set := range []bool{req.Workload != "", req.Program != "", req.TraceID != ""} {
		if set {
			nsources++
		}
	}
	if nsources == 0 {
		return spec, nil, &ErrorInfo{Code: CodeInvalidRequest, Field: "workload",
			Message: "one of workload, program or trace_id is required"}
	}
	if nsources > 1 {
		return spec, nil, &ErrorInfo{Code: CodeInvalidRequest, Field: "workload",
			Message: "workload, program and trace_id are mutually exclusive"}
	}
	if req.CPUs < 0 || req.CPUs > maxCPUs {
		return spec, nil, &ErrorInfo{Code: CodeInvalidRequest, Field: "cpus",
			Message: fmt.Sprintf("cpus must be 1-%d (or 0 for the default 8)", maxCPUs)}
	}
	if req.Scale < 0 || req.Scale > maxScale {
		return spec, nil, &ErrorInfo{Code: CodeInvalidRequest, Field: "scale",
			Message: fmt.Sprintf("scale must be 1-%d (or 0 for the default %d)", maxScale, workloads.DefaultScale)}
	}
	if req.TimeoutMS < 0 {
		return spec, nil, &ErrorInfo{Code: CodeInvalidRequest, Field: "timeout_ms",
			Message: "timeout_ms must be >= 0"}
	}

	var prog *ir.Program
	if req.Program != "" {
		p, err := ir.ParseString(req.Program)
		if err != nil {
			return spec, nil, &ErrorInfo{Code: CodeBadProgram, Field: "program", Message: err.Error()}
		}
		prog = p
	} else if req.Workload != "" {
		if _, err := workloads.ByName(req.Workload); err != nil {
			return spec, nil, &ErrorInfo{Code: CodeUnknownWorkload, Field: "workload", Message: err.Error()}
		}
	}
	if nprocs := 1 + len(req.CoRunners); nprocs > maxProcs {
		return spec, nil, &ErrorInfo{Code: CodeBadCoSchedule, Field: "co_runners",
			Message: fmt.Sprintf("%d processes exceed the %d-process limit", nprocs, maxProcs)}
	}

	cpus := req.CPUs
	if cpus == 0 && req.TraceID == "" {
		// Trace jobs leave 0: the width defaults to the trace's own CPU
		// count once the id resolves.
		cpus = 8
	}
	spec = harness.Spec{
		Workload: req.Workload,
		Scale:    req.Scale,
		CPUs:     cpus,
		Machine:  harness.MachineKind(req.Machine),
		Topology: req.Topology,
		Variant:  harness.Variant(req.Variant),
		Prefetch: req.Prefetch,
		Sched:    harness.SchedKind(req.Sched),
		Quantum:  req.QuantumCycles,
		Isolate:  req.Isolate,
		Domain:   req.IsolationDomain,
	}
	switch req.Fidelity {
	case "", string(sim.FidelityFull):
	case string(sim.FidelitySampled):
		// Whether the spec can be sampled is decided once it is complete
		// (admit resolves the trace id first).
		spec.Sampled = true
	default:
		return spec, nil, &ErrorInfo{Code: CodeBadFidelity, Field: "fidelity",
			Message: fmt.Sprintf("unknown fidelity %q (full, sampled)", req.Fidelity)}
	}
	for _, cr := range req.CoRunners {
		spec.CoRunners = append(spec.CoRunners, harness.CoRunner{
			Workload: cr.Workload,
			Variant:  harness.Variant(cr.Variant),
			Domain:   cr.IsolationDomain,
		})
	}
	if req.Attr {
		spec.Obs = obs.NewCollector(obs.Options{})
	}
	return spec, prog, nil
}

// specCodes maps a harness.Check rejection to its wire error code: the
// first row whose rule matches and whose field is the rejected Spec
// field with co-runner indices dropped, or empty, wins.
var specCodes = []struct {
	rule  harness.Rule
	field string
	info  ErrorInfo
}{
	{harness.RuleName, "Topology", ErrorInfo{Code: CodeBadTopology}},
	{harness.RuleName, "Sched", ErrorInfo{Code: CodeBadCoSchedule}},
	{harness.RuleName, "CoRunners.Variant", ErrorInfo{Code: CodeBadCoSchedule}},
	{harness.RuleName, "CoRunners.Workload", ErrorInfo{Code: CodeUnknownWorkload}},
	{harness.RuleName, "", ErrorInfo{Code: CodeInvalidRequest}},
	{harness.RuleCoSchedule, "", ErrorInfo{Code: CodeBadCoSchedule}},
	{harness.RuleIsolation, "", ErrorInfo{Code: CodeBadIsolation}},
	{harness.RuleTrace, "CoRunners", ErrorInfo{Code: CodeBadCoSchedule}},
	{harness.RuleTrace, "", ErrorInfo{Code: CodeInvalidRequest}},
}

// wireNames maps Spec field names to their JobRequest JSON names.
var wireNames = map[string]string{
	"Machine":   "machine",
	"Variant":   "variant",
	"Topology":  "topology",
	"Sched":     "sched",
	"Isolate":   "isolate",
	"Domain":    "isolation_domain",
	"Prefetch":  "prefetch",
	"CPUs":      "cpus",
	"CoRunners": "co_runners",
	"Workload":  "workload",
}

// checkErrorInfo converts a harness.Check error into the wire error:
// the code from specCodes, the field renamed to its JSON path (for
// example CoRunners[1].Variant becomes co_runners[1].variant).
func checkErrorInfo(err error) ErrorInfo {
	var se *harness.SpecError
	if !errors.As(err, &se) {
		return ErrorInfo{Code: CodeInvalidRequest, Message: err.Error()}
	}
	parts := strings.Split(se.Field, ".")
	names := make([]string, len(parts))
	for i, p := range parts {
		name, index, indexed := strings.Cut(p, "[")
		names[i], parts[i] = name, wireNames[name]
		if indexed {
			parts[i] += "[" + index
		}
	}
	key, field := strings.Join(names, "."), strings.Join(parts, ".")
	for _, row := range specCodes {
		if row.rule == se.Rule && (row.field == "" || row.field == key) {
			info := row.info
			info.Field, info.Message = field, se.Msg
			return info
		}
	}
	return ErrorInfo{Code: CodeInvalidRequest, Field: field, Message: se.Msg}
}

// summarizeMulti converts a multiprocess result into the wire
// JobResult: the machine total at the top level, the per-process
// summaries (in process-table order) under processes.
func summarizeMulti(mr *sim.MultiResult, cached bool, simTime time.Duration) *JobResult {
	out := summarize(mr.Total, cached, simTime)
	out.Sched = mr.Sched
	for _, r := range mr.PerProcess {
		p := summarize(r, cached, 0)
		out.Processes = append(out.Processes, *p)
	}
	return out
}

// summarize converts a sim.Result into the wire JobResult.
func summarize(res *sim.Result, cached bool, simTime time.Duration) *JobResult {
	return &JobResult{
		Workload:       res.Workload,
		Machine:        res.Machine,
		Policy:         res.Policy,
		CPUs:           res.NumCPUs,
		WallCycles:     res.WallCycles,
		CombinedCycles: res.CombinedCycles(),
		MCPI:           res.MCPI(),
		BusUtilization: res.BusUtilization(),
		L2Misses:       res.Total(func(s *sim.CPUStats) uint64 { return s.L2Misses }),
		ColdMisses:     res.Total(func(s *sim.CPUStats) uint64 { return s.ColdMisses }),
		ConflictMisses: res.Total(func(s *sim.CPUStats) uint64 { return s.ConflictMisses }),
		CapacityMisses: res.Total(func(s *sim.CPUStats) uint64 { return s.CapacityMisses }),
		SharingMisses: res.Total(func(s *sim.CPUStats) uint64 {
			return s.TrueShareMisses + s.FalseShareMisses
		}),
		PageFaults:   res.PageFaults,
		HintedFaults: res.HintedFaults,
		HonoredHints: res.HonoredHints,
		CrossDomainConflicts: res.Total(func(s *sim.CPUStats) uint64 {
			return s.CrossDomainConflicts
		}),
		Isolated: res.Isolated,
		Fidelity: res.Fidelity,
		Cached:   cached,
		SimMS:    float64(simTime.Microseconds()) / 1000,
	}
}
