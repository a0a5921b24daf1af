package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// cdpcdSampled drives an in-process cdpcd (server.New, two workers) on a
// loopback listener with two closed-loop clients posting sampled
// /v1/simulate jobs. Each round starts a fresh daemon, so its memo
// begins empty. A round has two phases: every spec of the mix once in a
// seeded order, then seeded repeats of those specs, which the memo
// serves because every fresh job has finished by then.
type cdpcdSampled struct {
	seed  uint64
	specs []harness.Spec
	rng   *rand.Rand
}

// Shape of the closed loop.
const (
	cdpcdWorkers = 2
	cdpcdClients = 2
	// repeatsPerRound is how many memo-served jobs a round sends. It is
	// a coverage choice, not a measured traffic mix: ten is the fewest
	// that give server.memo_hit_ms_p50 ten samples from a single round.
	repeatsPerRound = 10
)

// sampledSpecs is the job mix: the ten workloads x {page-coloring,
// cdpc} x {4, 8} CPUs, phase-sampled.
func sampledSpecs() []harness.Spec {
	var out []harness.Spec
	for _, w := range workloads.Names() {
		for _, v := range []harness.Variant{harness.PageColoring, harness.CDPC} {
			for _, cpus := range []int{4, 8} {
				out = append(out, harness.Spec{Workload: w, CPUs: cpus, Variant: v, Sampled: true})
			}
		}
	}
	return out
}

// setUp resolves the job mix and starts and stops one daemon; every
// round's daemon start is timed as a set-up too.
func (c *cdpcdSampled) setUp(seed uint64) error {
	c.seed, c.specs = seed, sampledSpecs()
	c.rng = rand.New(rand.NewPCG(seed, 1))
	for _, s := range c.specs {
		if golden.Sampled[specKey(s)].Result == "" {
			return fmt.Errorf("%s: no recorded fingerprint", specKey(s))
		}
	}
	rd, err := c.openRound()
	if err != nil {
		return err
	}
	rd.stop()
	return nil
}

// openRound starts a daemon and checks that it lists every workload of
// the mix.
func (c *cdpcdSampled) openRound() (*round, error) {
	rd, err := startRound()
	if err != nil {
		return nil, err
	}
	resp, err := rd.client.Get(rd.url + "/v1/workloads")
	if err != nil {
		rd.stop()
		return nil, err
	}
	var wr server.WorkloadsResponse
	err = json.NewDecoder(resp.Body).Decode(&wr)
	resp.Body.Close()
	if err != nil {
		rd.stop()
		return nil, fmt.Errorf("GET /v1/workloads: %w", err)
	}
	listed := map[string]bool{}
	for _, w := range wr.Workloads {
		listed[w.Name] = true
	}
	for _, s := range c.specs {
		if !listed[s.Workload] {
			rd.stop()
			return nil, fmt.Errorf("daemon does not list workload %s", s.Workload)
		}
	}
	return rd, nil
}

// roundJobs returns one round's two phases as indexes into specs: every
// spec once, then the repeats.
func (c *cdpcdSampled) roundJobs() (fresh, repeats []int) {
	fresh = c.rng.Perm(len(c.specs))
	for range repeatsPerRound {
		repeats = append(repeats, c.rng.IntN(len(c.specs)))
	}
	return fresh, repeats
}

// jobOutcome is one client request's result.
type jobOutcome struct {
	res     *server.JobResult
	latency time.Duration
	err     error
}

// measure runs whole rounds until d of driven time has accumulated.
func (c *cdpcdSampled) measure(d time.Duration, y *yardstick) *window {
	w := &window{y: y}
	for w.elapsed == 0 || w.elapsed < d {
		fresh, repeats := c.roundJobs()
		y.calibrate()
		t := time.Now()
		rd, err := c.openRound()
		w.setUps = append(w.setUps, y.scale(time.Since(t)).Seconds())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: starting cdpcd:", err)
			w.attempted++
			w.failed++
			break
		}
		start := time.Now()
		outs := append(rd.drive(c.specs, fresh), rd.drive(c.specs, repeats)...)
		host := time.Since(start)
		w.elapsed += host
		elapsed := y.scale(host)
		w.busy += elapsed
		hits, misses := rd.srv.Scheduler().CacheStats()
		w.memoHits += hits
		w.memoMisses += misses
		insts := c.checkRound(w, rd, fresh, repeats, outs)
		w.insts += insts
		w.rates = append(w.rates, float64(insts)/elapsed.Seconds())
		rd.stop()
	}
	return w
}

// checkRound verifies a round's responses and the daemon's memoized
// results against the recorded fingerprints, books every job into w and
// returns the simulated instructions of the round. The fresh phase sends
// every spec once and the repeats follow it, so the daemon simulates
// each spec exactly once: fresh responses must say cached=false and
// repeats cached=true.
func (c *cdpcdSampled) checkRound(w *window, rd *round, fresh, repeats []int, outs []jobOutcome) uint64 {
	specErr := make([]error, len(c.specs))
	var insts uint64
	for i, s := range c.specs {
		var res *sim.Result
		if !rd.srv.Scheduler().HasResult(s) {
			specErr[i] = errors.New("result not memoized by the daemon")
		} else if res, specErr[i] = rd.srv.Scheduler().Run(s); specErr[i] == nil {
			specErr[i] = checkResult(res, golden.Sampled[specKey(s)].Result)
		}
		if specErr[i] == nil {
			insts += instructions(res)
			w.keep(specKey(s), res)
		}
	}
	jobs := append(append([]int(nil), fresh...), repeats...)
	for i, idx := range jobs {
		o, key := outs[i], specKey(c.specs[idx])
		repeat := i >= len(fresh)
		err := o.err
		if err == nil {
			err = specErr[idx]
		}
		if err == nil && o.res.Cached != repeat {
			err = fmt.Errorf("response says cached=%v, want %v", o.res.Cached, repeat)
		}
		if err == nil && summaryPrint(o.res) != golden.Sampled[key].Summary {
			err = errors.New("response counters differ from the recorded fingerprint")
		}
		w.attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", key, err)
			w.failed++
			continue
		}
		lat := w.y.scale(o.latency)
		w.jobs = append(w.jobs, lat)
		if repeat {
			w.cached = append(w.cached, lat)
		}
	}
	return insts
}

// summaryPrint fingerprints a job response's simulated counters, leaving
// out the fields that describe how this request was served.
func summaryPrint(jr *server.JobResult) string {
	c := *jr
	c.Cached, c.SimMS = false, 0
	return fingerprint(c)
}

// layers replays captured streams of the mix's programs, times the
// compiler pipeline and hint computation over every spec, and measures
// sampling accuracy against full-fidelity references it computes.
func (c *cdpcdSampled) layers(w *window) (map[string]float64, error) {
	var caps []*irCapture
	for _, s := range c.specs {
		if s.CPUs != 8 {
			continue
		}
		full := s
		full.Sampled = false
		cp, err := captureIR(full, cdpcdReplayRefs)
		if err != nil {
			return nil, err
		}
		caps = append(caps, cp)
	}
	m, err := irLayerMetrics(caps)
	if err != nil {
		return nil, err
	}
	refs, err := fullReferences(c.specs)
	if err != nil {
		return nil, err
	}
	var worst float64
	for i, s := range c.specs {
		key := specKey(s)
		w.attempted++
		sam := w.results[key]
		if err := checkResult(refs[i], golden.Sampled[key].Full); err != nil || sam == nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s full reference: %v\n", key, err)
			w.failed++
			continue
		}
		worst = max(worst, mcpiErrPct(sam, refs[i]))
	}
	m["sampled_mcpi_err_pct"] = worst
	return m, nil
}

// cdpcdReplayRefs is the per-program reference budget of the replay.
const cdpcdReplayRefs = 1 << 16

// fullReferences runs every spec at full fidelity on cdpcdWorkers
// goroutines.
func fullReferences(specs []harness.Spec) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(specs))
	errs := make([]error, len(specs))
	forEach(len(specs), cdpcdWorkers, func(i int) {
		s := specs[i]
		s.Sampled = false
		out[i], errs[i] = harness.Run(s)
	})
	return out, errors.Join(errs...)
}

// forEach calls fn for every index below n from the given number of
// goroutines, each taking the next index when it finishes one, and
// returns when all calls have.
func forEach(n, goroutines int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// round is one in-process daemon on a loopback listener.
type round struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

// startRound starts a daemon and waits until it reports ready.
func startRound() (*round, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Workers: cdpcdWorkers})
	rd := &round{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cdpcdClients}},
		served: make(chan error, 1),
	}
	go func() { rd.served <- rd.hs.Serve(ln) }()
	resp, err := rd.client.Get(rd.url + "/readyz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: %s", resp.Status)
		}
	}
	if err != nil {
		rd.stop()
		return nil, err
	}
	return rd, nil
}

// stop shuts the HTTP server and the daemon down and waits for both.
func (rd *round) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rd.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
	}
	if err := rd.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cdpcd shutdown:", err)
	}
	<-rd.served
	rd.client.CloseIdleConnections()
}

// drive sends the jobs from cdpcdClients closed-loop clients and
// returns their outcomes in job order.
func (rd *round) drive(specs []harness.Spec, jobs []int) []jobOutcome {
	outs := make([]jobOutcome, len(jobs))
	forEach(len(jobs), cdpcdClients, func(i int) {
		res, lat, err := rd.post(specs[jobs[i]])
		outs[i] = jobOutcome{res, lat, err}
	})
	return outs
}

// post sends one synchronous sampled job and times it from send to the
// full response body.
func (rd *round) post(s harness.Spec) (*server.JobResult, time.Duration, error) {
	body, err := json.Marshal(server.JobRequest{Workload: s.Workload, CPUs: s.CPUs, Variant: string(s.Variant), Fidelity: sim.FidelitySampled})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := rd.client.Post(rd.url+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var jr server.JobResult
	if err := json.Unmarshal(data, &jr); err != nil {
		return nil, 0, err
	}
	return &jr, lat, nil
}
