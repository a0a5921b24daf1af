// Command smoke is the verify.sh end-to-end exercise for cdpcd. It
// starts a freshly built daemon on an ephemeral port and drives the
// full acceptance scenario from outside the process boundary:
//
//  1. readiness via /readyz,
//  2. one synchronous and one polled asynchronous job,
//  3. 64 concurrent submissions of mixed repeated/unique specs
//     against a deliberately small queue while long jobs hold every
//     worker — 429s must be observed (bounded-queue backpressure),
//     every accepted job must reach a terminal state (zero dropped),
//     and repeated specs must be served from the memo cache,
//  4. /metrics counters must have moved accordingly,
//  5. SIGTERM must drain gracefully within the deadline (exit 0).
//
// Usage: go run ./scripts/smoke -bin /path/to/cdpcd
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/trace"
)

var bin = flag.String("bin", "", "path to a built cdpcd binary")

func main() {
	flag.Parse()
	if *bin == "" {
		fatalf("usage: smoke -bin /path/to/cdpcd")
	}
	if err := run(); err != nil {
		fatalf("%v", err)
	}
	fmt.Println("smoke: all checks passed")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "smoke: "+format+"\n", args...)
	os.Exit(1)
}

// The daemon's pool and queue: small, so that 64 concurrent
// submissions overflow the queue once the workers are held.
const (
	workers  = 4
	queueCap = 8
)

func run() error {
	cmd := exec.Command(*bin, "-addr", "127.0.0.1:0", "-workers", fmt.Sprint(workers),
		"-queue", fmt.Sprint(queueCap), "-quiet")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting cdpcd: %w", err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // no-op after a clean Wait

	base, err := readBaseURL(stdout)
	if err != nil {
		return err
	}
	go io.Copy(io.Discard, stdout) //nolint:errcheck // drain remaining output
	if err := waitReady(base); err != nil {
		return err
	}
	fmt.Printf("smoke: cdpcd up at %s\n", base)

	if err := checkSync(base); err != nil {
		return err
	}
	if err := checkAsync(base); err != nil {
		return err
	}
	if err := checkBackpressure(base); err != nil {
		return err
	}
	if err := checkTrace(base); err != nil {
		return err
	}
	if err := checkMetrics(base); err != nil {
		return err
	}
	return checkShutdown(cmd)
}

// checkTrace drives the trace-driven path from outside: upload a small
// binary trace, replay it by trace_id, and require unknown ids to be
// rejected with the documented code.
func checkTrace(base string) error {
	enc, err := trace.NewEncoder(2)
	if err != nil {
		return err
	}
	for cpu := 0; cpu < 2; cpu++ {
		addr := uint64(cpu)<<24 | 0x1000
		for i := 0; i < 4096; i++ {
			kind := trace.Read
			if i%5 == 0 {
				kind = trace.Write
			}
			if err := enc.Add(cpu, trace.Ref{Kind: kind, VAddr: addr, Size: 8}); err != nil {
				return err
			}
			addr += 64
			if i%512 == 511 {
				addr -= 16384
			}
		}
	}
	var img bytes.Buffer
	if _, err := enc.File().WriteTo(&img); err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/traces", "application/octet-stream", &img)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("trace upload: %d: %s", resp.StatusCode, data)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &info); err != nil || info.ID == "" {
		return fmt.Errorf("trace upload: bad body: %s", data)
	}

	body, _ := json.Marshal(map[string]any{"trace_id": info.ID, "variant": "cdpc"})
	resp, data, err = postJSON(base+"/v1/simulate", body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace simulate: %d: %s", resp.StatusCode, data)
	}
	var res struct {
		WallCycles uint64 `json:"wall_cycles"`
		CPUs       int    `json:"cpus"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("trace simulate: bad body: %w", err)
	}
	if res.WallCycles == 0 || res.CPUs != 2 {
		return fmt.Errorf("trace simulate: implausible result: %s", data)
	}

	body, _ = json.Marshal(map[string]any{"trace_id": strings.Repeat("0", 64)})
	resp, data, err = postJSON(base+"/v1/simulate", body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "unknown_trace") {
		return fmt.Errorf("unknown trace_id: want 400 unknown_trace, got %d: %s", resp.StatusCode, data)
	}
	fmt.Println("smoke: trace upload + replay ok")
	return nil
}

// readBaseURL parses the "cdpcd listening on http://..." line the
// daemon prints on startup.
func readBaseURL(r io.Reader) (string, error) {
	buf := make([]byte, 256)
	var line strings.Builder
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		n, err := r.Read(buf)
		line.Write(buf[:n])
		if i := strings.Index(line.String(), "http://"); i >= 0 {
			s := line.String()[i:]
			if j := strings.IndexAny(s, " \n"); j >= 0 {
				return strings.TrimSpace(s[:j]), nil
			}
		}
		if err != nil {
			return "", fmt.Errorf("cdpcd exited before printing its address: %w", err)
		}
	}
	return "", fmt.Errorf("timed out waiting for listen address (got %q)", line.String())
}

func waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("readyz never returned 200")
}

// fastBody is the quick spec every repeated submission uses (~20 ms).
// Fidelity is pinned to full: async jobs otherwise default to sampled,
// which finishes too fast for the saturation phase to ever catch the
// queue at capacity.
func fastBody(scale int) []byte {
	b, _ := json.Marshal(map[string]any{
		"workload": "tomcatv", "cpus": 1, "scale": scale, "fidelity": "full",
	})
	return b
}

func postJSON(url string, body []byte) (*http.Response, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

func checkSync(base string) error {
	resp, data, err := postJSON(base+"/v1/simulate", fastBody(64))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sync simulate: %d: %s", resp.StatusCode, data)
	}
	var res struct {
		MCPI       float64 `json:"mcpi"`
		WallCycles uint64  `json:"wall_cycles"`
		Cached     bool    `json:"cached"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("sync simulate: bad body: %w", err)
	}
	if res.WallCycles == 0 {
		return fmt.Errorf("sync simulate: zero wall_cycles")
	}
	// Submit the same spec again: must be a memo hit.
	resp, data, err = postJSON(base+"/v1/simulate", fastBody(64))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repeat simulate: %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return err
	}
	if !res.Cached {
		return fmt.Errorf("repeat simulate not served from memo cache")
	}
	fmt.Println("smoke: sync simulate ok (repeat was cached)")
	return nil
}

func checkAsync(base string) error {
	resp, data, err := postJSON(base+"/v1/jobs", fastBody(32))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %d: %s", resp.StatusCode, data)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	loc := resp.Header.Get("Location")
	if loc == "" {
		return fmt.Errorf("submit: no Location header")
	}
	state, err := poll(base+loc, 30*time.Second)
	if err != nil {
		return err
	}
	if state != "done" {
		return fmt.Errorf("async job %s finished %q, want done", st.ID, state)
	}
	fmt.Printf("smoke: async job %s done\n", st.ID)
	return nil
}

func poll(url string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		state, err := jobState(url)
		if err != nil {
			return "", err
		}
		switch state {
		case "done", "failed", "canceled":
			return state, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return "", fmt.Errorf("poll %s: no terminal state within %s", url, timeout)
}

// blockerBody is a spec that runs for seconds: tomcatv at the paper's
// own scale, full fidelity. cpus varies it, so that no two blockers
// share a memo entry.
func blockerBody(cpus int) []byte {
	b, _ := json.Marshal(map[string]any{
		"workload": "tomcatv", "cpus": cpus, "scale": 1, "fidelity": "full", "variant": "cdpc",
	})
	return b
}

// holdWorkers submits one blocker per worker and waits until every one
// reports running, so that the queue is the only place left for a new
// job. It returns the blockers' job URLs.
func holdWorkers(base string) ([]string, error) {
	var urls []string
	for i := 0; i < workers; i++ {
		resp, data, err := postJSON(base+"/v1/jobs", blockerBody(1<<i))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusAccepted {
			return nil, fmt.Errorf("blocker %d: %d: %s", i, resp.StatusCode, data)
		}
		urls = append(urls, base+resp.Header.Get("Location"))
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, url := range urls {
		for {
			state, err := jobState(url)
			if err != nil {
				return nil, err
			}
			if state == "running" {
				break
			}
			if state != "queued" {
				return nil, fmt.Errorf("blocker %s reached %q before the burst; it must run for seconds", url, state)
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("blocker %s still queued after 30s", url)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return urls, nil
}

// jobState returns the state GET reports for a job URL.
func jobState(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	var st struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return "", fmt.Errorf("poll %s: bad body %q", url, data)
	}
	return st.State, nil
}

// release cancels the blockers with DELETE.
func release(urls []string) error {
	for _, url := range urls {
		req, err := http.NewRequest(http.MethodDelete, url, nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("DELETE %s: %d", url, resp.StatusCode)
		}
	}
	return nil
}

// checkBackpressure holds every worker with a long blocker job, then
// fires 64 concurrent submissions — half repeats of one fast spec,
// half unique specs — at the queue. With no worker free, the queue
// fills and the next submission must get a 429, however fast the host.
// The first 429 releases the blockers. Every 429 is retried until
// accepted (so all 64 are eventually admitted), and every accepted job
// must then reach "done": bounded queue, zero dropped accepted jobs.
func checkBackpressure(base string) error {
	const n = 64
	blockers, err := holdWorkers(base)
	if err != nil {
		return err
	}
	var rejected atomic.Uint64
	firstReject := make(chan struct{})
	var once sync.Once
	burstDone := make(chan struct{})
	released := make(chan error, 1)
	go func() {
		select {
		case <-firstReject:
		case <-burstDone:
		}
		released <- release(blockers)
	}()
	ids := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Even submissions repeat one spec (memo-cache traffic);
			// odd ones are unique (scale varies ⇒ distinct spec keys).
			body := fastBody(64)
			if i%2 == 1 {
				body = fastBody(64 + i)
			}
			for attempt := 0; ; attempt++ {
				resp, data, err := postJSON(base+"/v1/jobs", body)
				if err != nil {
					errs[i] = err
					return
				}
				switch resp.StatusCode {
				case http.StatusAccepted:
					var st struct {
						ID string `json:"id"`
					}
					if err := json.Unmarshal(data, &st); err != nil {
						errs[i] = err
						return
					}
					ids[i] = st.ID
					return
				case http.StatusTooManyRequests:
					rejected.Add(1)
					once.Do(func() { close(firstReject) })
					if resp.Header.Get("Retry-After") == "" {
						errs[i] = fmt.Errorf("429 without Retry-After")
						return
					}
					if attempt > 400 {
						errs[i] = fmt.Errorf("still 429 after %d attempts", attempt)
						return
					}
					time.Sleep(25 * time.Millisecond)
				default:
					errs[i] = fmt.Errorf("submit %d: unexpected %d: %s", i, resp.StatusCode, data)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(burstDone)
	if err := <-released; err != nil {
		return fmt.Errorf("releasing the blockers: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if rejected.Load() == 0 {
		return fmt.Errorf("no 429 observed across %d concurrent submissions on a queue of %d with every worker held; backpressure untested", n, queueCap)
	}
	for _, url := range blockers {
		if state, err := poll(url, 60*time.Second); err != nil {
			return fmt.Errorf("blocker %s: %w", url, err)
		} else if state != "canceled" && state != "done" {
			return fmt.Errorf("blocker %s finished %q, want canceled or done", url, state)
		}
	}
	// Zero dropped: every accepted job reaches a terminal state, and
	// that state is done.
	for i, id := range ids {
		state, err := poll(base+"/v1/jobs/"+id, 60*time.Second)
		if err != nil {
			return fmt.Errorf("accepted job %s (submission %d) lost: %w", id, i, err)
		}
		if state != "done" {
			return fmt.Errorf("accepted job %s finished %q, want done", id, state)
		}
	}
	fmt.Printf("smoke: backpressure ok (%d workers held, %d submissions accepted, %d transient 429s, zero dropped)\n",
		workers, n, rejected.Load())
	return nil
}

func checkMetrics(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	text := string(data)
	for _, metric := range []string{
		"cdpcd_jobs_accepted_total", "cdpcd_jobs_rejected_total",
		"cdpcd_jobs_completed_total", "cdpcd_scheduler_cache_hits_total",
		"cdpcd_simulation_seconds_count", "cdpcd_http_requests_total",
	} {
		if !strings.Contains(text, metric) {
			return fmt.Errorf("/metrics missing %s", metric)
		}
	}
	for _, check := range []struct{ metric, why string }{
		{"cdpcd_jobs_accepted_total", "jobs were accepted"},
		{"cdpcd_jobs_rejected_total", "429s were returned"},
		{"cdpcd_jobs_completed_total", "jobs completed"},
		{"cdpcd_scheduler_cache_hits_total", "repeated specs hit the memo cache"},
	} {
		v, err := metricValue(text, check.metric)
		if err != nil {
			return err
		}
		if v <= 0 {
			return fmt.Errorf("%s = %v but %s", check.metric, v, check.why)
		}
	}
	fmt.Println("smoke: metrics moved (accepted, rejected, completed, cache hits all > 0)")
	return nil
}

func metricValue(text, name string) (float64, error) {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("/metrics has no sample for %s", name)
}

// checkShutdown sends SIGTERM and requires a clean exit (drained)
// within the daemon's 30s default drain deadline plus slack.
func checkShutdown(cmd *exec.Cmd) error {
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("cdpcd exited non-zero after SIGTERM: %w", err)
		}
	case <-time.After(40 * time.Second):
		return fmt.Errorf("cdpcd did not exit within the drain deadline")
	}
	fmt.Println("smoke: graceful shutdown ok (exit 0 within drain deadline)")
	return nil
}
