package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// route is one entry of the routing table. Routes() and buildMux are
// derived from the same table, and the routes test asserts API.md
// documents every pattern — the table is the single source of truth.
type route struct {
	pattern string
	handler http.HandlerFunc
}

// routes returns the full routing table in registration order.
func (s *Server) routes() []route {
	return []route{
		{"POST /v1/simulate", s.handleSimulate},
		{"POST /v1/jobs", s.handleSubmit},
		{"GET /v1/jobs", s.handleListJobs},
		{"GET /v1/jobs/{id}", s.handleGetJob},
		{"DELETE /v1/jobs/{id}", s.handleCancelJob},
		{"POST /v1/traces", s.handleUploadTrace},
		{"GET /v1/traces/{id}", s.handleGetTrace},
		{"GET /v1/workloads", s.handleWorkloads},
		{"GET /metrics", s.handleMetrics},
		{"GET /healthz", s.handleHealthz},
		{"GET /readyz", s.handleReadyz},
	}
}

// Routes lists every route pattern the server registers, in
// registration order. API.md must document each one; the routes test
// enforces that.
func Routes() []string {
	var s Server
	pats := make([]string, 0, 9)
	for _, r := range s.routes() {
		pats = append(pats, r.pattern)
	}
	return pats
}

// buildMux assembles the instrumented mux from the routing table.
func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	for _, r := range s.routes() {
		mux.Handle(r.pattern, s.instrument(r.pattern, r.handler))
	}
	return mux
}

// retryAfterSec is the Retry-After hint on 429/503 responses: with a
// bounded queue draining at simulation speed, one second is the right
// order of magnitude for a slot to open.
const retryAfterSec = 1

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// writeError writes a typed error response.
func writeError(w http.ResponseWriter, status int, info ErrorInfo) {
	if info.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(info.RetryAfterSec))
	}
	writeJSON(w, status, ErrorResponse{Error: info})
}

// admit validates, creates and enqueues a job, mapping queue
// conditions to the documented status codes. Returns nil after having
// written an error response; otherwise it also returns the job's status
// as accepted, snapshotted before a worker can start it. async selects
// the fidelity default for requests that leave it empty: async jobs run
// sampled when the spec is compatible (they are the bulk-sweep path
// where throughput matters), synchronous ones run full.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, async bool) (*job, JobStatus) {
	if s.draining() {
		writeError(w, http.StatusServiceUnavailable, ErrorInfo{
			Code: CodeShuttingDown, Message: "server is draining", RetryAfterSec: retryAfterSec})
		return nil, JobStatus{}
	}
	req, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrorInfo{Code: CodeInvalidRequest, Message: err.Error()})
		return nil, JobStatus{}
	}
	spec, prog, errInfo := req.validate()
	if errInfo != nil {
		writeError(w, http.StatusBadRequest, *errInfo)
		return nil, JobStatus{}
	}
	if req.TraceID != "" {
		// Resolve the id against the upload store now, so queue slots are
		// never spent on jobs that cannot run.
		f := s.traces.get(req.TraceID)
		if f == nil {
			writeError(w, http.StatusBadRequest, ErrorInfo{Code: CodeUnknownTrace, Field: "trace_id",
				Message: "no such trace (upload it with POST /v1/traces): " + req.TraceID})
			return nil, JobStatus{}
		}
		if spec.CPUs == 0 {
			spec.CPUs = f.NumCPUs()
		}
		if spec.CPUs > maxCPUs {
			writeError(w, http.StatusBadRequest, ErrorInfo{Code: CodeInvalidRequest, Field: "cpus",
				Message: fmt.Sprintf("trace carries %d CPU streams; cpus must be at most %d", spec.CPUs, maxCPUs)})
			return nil, JobStatus{}
		}
		spec.Trace = harness.NewTraceWorkload("trace:"+shortTraceID(req.TraceID), f)
	}
	check := harness.Check
	if prog != nil {
		check = harness.CheckProgram
	}
	if err := check(spec); err != nil {
		writeError(w, http.StatusBadRequest, checkErrorInfo(err))
		return nil, JobStatus{}
	}
	conflict := harness.SampleConflict(spec)
	switch {
	case req.Fidelity == "" && async:
		spec.Sampled = conflict == nil
	case spec.Sampled && conflict != nil:
		writeError(w, http.StatusBadRequest, ErrorInfo{Code: CodeBadFidelity, Field: "fidelity",
			Message: "cannot sample: " + conflict.Error()})
		return nil, JobStatus{}
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	j := s.store.create(req, spec, prog, timeout)
	accepted := j.status(false)
	if err := s.queue.submit(j); err != nil {
		// Rejected at admission: the job was never accepted, so it
		// leaves no trace in the store.
		s.store.remove(j.id)
		switch err {
		case errShuttingDown:
			writeError(w, http.StatusServiceUnavailable, ErrorInfo{
				Code: CodeShuttingDown, Message: "server is draining", RetryAfterSec: retryAfterSec})
		default:
			writeError(w, http.StatusTooManyRequests, ErrorInfo{
				Code:          CodeQueueFull,
				Message:       "admission queue is full; retry after a backoff",
				RetryAfterSec: retryAfterSec})
		}
		return nil, JobStatus{}
	}
	s.logf("job %s accepted: %s", j.id, describe(j.req))
	return j, accepted
}

// decodeJobRequest decodes one JobRequest body; unknown fields are
// errors, so a misspelled option never silently takes its default.
func decodeJobRequest(r io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// maxBodyBytes bounds request bodies; custom programs are text and
// comfortably fit.
const maxBodyBytes = 1 << 20

// handleSimulate is POST /v1/simulate: synchronous submission. The job
// goes through the same bounded queue as async submissions (so
// backpressure applies identically), and the handler blocks until it
// finishes or the client gives up — a disconnected client cancels the
// job.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	j, _ := s.admit(w, r, false)
	if j == nil {
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		j.requestCancel("client disconnected")
		<-j.done
	}
	st := j.status(false)
	switch st.State {
	case StateDone:
		writeJSON(w, http.StatusOK, st.Result)
	case StateCanceled:
		status := http.StatusConflict
		if st.Error != nil && st.Error.Code == CodeTimeout {
			status = http.StatusGatewayTimeout
		}
		writeError(w, status, *st.Error)
	default: // StateFailed
		writeError(w, http.StatusUnprocessableEntity, *st.Error)
	}
}

// handleSubmit is POST /v1/jobs: async submission, 202 + job id.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	j, accepted := s.admit(w, r, true)
	if j == nil {
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, accepted)
}

// handleListJobs is GET /v1/jobs.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, JobList{Jobs: s.store.list()})
}

// handleGetJob is GET /v1/jobs/{id}.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, ErrorInfo{Code: CodeNotFound,
			Message: "no such job: " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

// handleCancelJob is DELETE /v1/jobs/{id}: cancel a queued or running
// job. Finished jobs are left untouched (idempotent; the response
// reports the state the job is now in).
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, ErrorInfo{Code: CodeNotFound,
			Message: "no such job: " + r.PathValue("id")})
		return
	}
	prev := j.requestCancel("canceled by DELETE /v1/jobs/" + j.id)
	if prev == StateRunning {
		// Wait briefly so the common case (cancellation lands at the
		// next nest boundary) reports the terminal state.
		select {
		case <-j.done:
		case <-time.After(2 * time.Second):
		}
	}
	s.logf("job %s cancel requested (was %s)", j.id, prev)
	writeJSON(w, http.StatusOK, j.status(false))
}

// handleWorkloads is GET /v1/workloads: the request vocabulary.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	resp := WorkloadsResponse{
		Machines:   []string{string(harness.BaseMachine), string(harness.AlphaMachine)},
		Topologies: arch.TopologyNames(),
	}
	for _, v := range harness.Variants() {
		resp.Variants = append(resp.Variants, string(v))
	}
	for _, m := range workloads.Registry() {
		resp.Workloads = append(resp.Workloads, WorkloadInfo{
			Name:        m.Name,
			Description: m.Traits,
			PaperDataMB: m.PaperDataMB,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics is GET /metrics: the Prometheus text exposition of
// queue, scheduler-cache and per-endpoint latency metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WriteText(w) //nolint:errcheck // client gone; nothing to do
}

// handleHealthz is GET /healthz: liveness (the process serves HTTP).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte("ok\n")) //nolint:errcheck
}

// handleReadyz is GET /readyz: readiness; 503 once draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ready\n")) //nolint:errcheck
}

// describe renders a request for log lines.
func describe(req JobRequest) string {
	name := req.Workload
	if name == "" && req.TraceID != "" {
		name = "trace:" + shortTraceID(req.TraceID)
	}
	if name == "" {
		name = "<custom program>"
	}
	v := req.Variant
	if v == "" {
		v = string(harness.PageColoring)
	}
	if n := len(req.CoRunners); n > 0 {
		return fmt.Sprintf("%s/%s (+%d co-runners)", name, v, n)
	}
	return name + "/" + v
}
