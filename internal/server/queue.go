package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/sim"
)

// queue is the bounded admission queue plus the worker pool that
// drains it. Backpressure is explicit and newest-first: an arriving
// job that finds the buffer full is rejected with errQueueFull (the
// handler turns that into 429 + Retry-After) — accepted jobs are never
// dropped. Shutdown closes admission first, then lets the workers
// drain everything already accepted.
type queue struct {
	ch      chan *job
	sched   *harness.Scheduler
	baseCtx context.Context // canceled when the drain deadline expires

	mu     sync.Mutex
	closed bool // guarded by mu

	wg       sync.WaitGroup
	inFlight atomic.Int64

	// metrics
	depth     atomic.Int64
	accepted  *obs.Counter
	rejected  *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	canceled  *obs.Counter
	simTime   *obs.Histogram
}

// errQueueFull reports that the bounded queue is at capacity.
var errQueueFull = errors.New("server: queue full")

// errShuttingDown reports that admission is closed.
var errShuttingDown = errors.New("server: shutting down")

// newQueue creates the queue and starts workers goroutines draining it.
func newQueue(baseCtx context.Context, sched *harness.Scheduler, capacity, workers int, reg *obs.Registry) *queue {
	q := &queue{
		ch:        make(chan *job, capacity),
		sched:     sched,
		baseCtx:   baseCtx,
		accepted:  reg.Counter("cdpcd_jobs_accepted_total", "jobs admitted to the queue"),
		rejected:  reg.Counter("cdpcd_jobs_rejected_total", "submissions rejected with 429 (queue full)"),
		completed: reg.Counter("cdpcd_jobs_completed_total", "jobs finished successfully"),
		failed:    reg.Counter("cdpcd_jobs_failed_total", "jobs finished with an error"),
		canceled:  reg.Counter("cdpcd_jobs_canceled_total", "jobs canceled or timed out"),
		simTime:   reg.Histogram("cdpcd_simulation_seconds", "wall time per executed simulation", nil),
	}
	reg.Gauge("cdpcd_queue_depth", "jobs waiting in the bounded queue", func() float64 {
		return float64(q.depth.Load())
	})
	reg.Gauge("cdpcd_jobs_in_flight", "jobs currently executing", func() float64 {
		return float64(q.inFlight.Load())
	})
	reg.Gauge("cdpcd_queue_capacity", "bounded queue capacity", func() float64 {
		return float64(capacity)
	})
	reg.Gauge("cdpcd_workers", "worker pool size", func() float64 {
		return float64(workers)
	})
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// submit admits a job or rejects it without blocking. The admission
// check and the channel send happen under the lock so a concurrent
// close cannot strand a job in a closed channel.
func (q *queue) submit(j *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errShuttingDown
	}
	select {
	case q.ch <- j:
		q.depth.Add(1)
		q.accepted.Inc()
		return nil
	default:
		q.rejected.Inc()
		return errQueueFull
	}
}

// close stops admission. Jobs already accepted keep draining.
func (q *queue) close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
	q.mu.Unlock()
}

// wait blocks until every accepted job has finished, or ctx expires.
// It returns nil on a complete drain.
func (q *queue) wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker drains the queue until it is closed and empty.
func (q *queue) worker() {
	defer q.wg.Done()
	for j := range q.ch {
		q.depth.Add(-1)
		q.runJob(j)
	}
}

// runJob executes one job end to end: per-job timeout, cancellation,
// memo-cached simulation, result summarization and terminal-state
// accounting.
func (q *queue) runJob(j *job) {
	ctx, cancel := context.WithCancel(q.baseCtx)
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(q.baseCtx, j.timeout)
	}
	defer cancel()

	if !j.markRunning(cancel) {
		// Canceled while queued; requestCancel already finished it.
		q.canceled.Inc()
		return
	}
	q.inFlight.Add(1)
	defer q.inFlight.Add(-1)

	spec := j.spec

	// The memo cache only serves spec-keyed runs; custom programs and
	// instrumented runs (HasResult is false for them) always simulate
	// fresh. Solo and multiprocess specs share one memo table keyed on
	// the full process mix.
	multi := len(spec.CoRunners) > 0
	cached := j.prog == nil && q.sched.HasResult(spec)
	start := time.Now()
	var res *sim.Result
	var mres *sim.MultiResult
	var err error
	switch {
	case multi:
		mres, err = q.sched.RunMultiCtx(ctx, spec)
	case j.prog != nil:
		res, err = harness.RunProgramCtx(ctx, j.prog, spec)
	default:
		res, err = q.sched.RunCtx(ctx, spec)
	}
	simTime := time.Since(start)

	if err != nil {
		q.finishErr(j, err)
		return
	}
	q.simTime.Observe(simTime)
	var out *JobResult
	if multi {
		out = summarizeMulti(mres, cached, simTime)
	} else {
		out = summarize(res, cached, simTime)
	}
	if spec.Obs != nil {
		out.Attribution = attributionOf(spec.Obs)
	}
	// Count before finishing: finish releases a synchronous request's
	// response, and a client that then reads /metrics must see the job.
	q.completed.Inc()
	j.finish(StateDone, out, nil)
}

// finishErr maps a simulation error to the job's terminal state:
// deadline → timeout, cancellation → canceled, frame exhaustion →
// failed with the typed out_of_memory code, anything else → failed.
// As on success, the counter moves before finish releases the job.
func (q *queue) finishErr(j *job, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		q.canceled.Inc()
		j.finish(StateCanceled, nil, &ErrorInfo{Code: CodeTimeout,
			Message: "job exceeded its deadline: " + err.Error()})
	case errors.Is(err, context.Canceled):
		q.canceled.Inc()
		j.finish(StateCanceled, nil, &ErrorInfo{Code: CodeCanceled, Message: err.Error()})
	case errors.Is(err, memory.ErrOutOfMemory):
		q.failed.Inc()
		j.finish(StateFailed, nil, &ErrorInfo{Code: CodeOutOfMemory,
			Message: "simulated machine ran out of physical frames: " + err.Error()})
	default:
		q.failed.Inc()
		j.finish(StateFailed, nil, &ErrorInfo{Code: CodeSimFailed, Message: err.Error()})
	}
}

// attributionOf summarizes an obs collector for the wire.
func attributionOf(c *obs.Collector) *Attribution {
	per := c.PerColor()
	a := &Attribution{PerColorMisses: make([]uint64, len(per))}
	for i := range per {
		a.PerColorMisses[i] = per[i].Total()
	}
	for _, p := range c.TopPages(topPagesN) {
		a.TopPages = append(a.TopPages, PageAttr{
			PID:         p.PID,
			VPN:         p.VPN,
			Color:       p.Color,
			Misses:      p.Misses.Total(),
			Conflict:    p.Misses[obs.Conflict],
			StallCycles: p.StallCycles,
		})
	}
	return a
}

// topPagesN is how many hottest pages an attr result carries.
const topPagesN = 10
