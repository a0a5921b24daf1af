package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// tracedRun measures the workload twice, plainly and under a CPU
// profile, each for half of d, then runs the workload's layer replay.
// It returns every per-layer metric and the operation counts of both
// windows.
func tracedRun(w workload, d time.Duration, y *yardstick) (map[string]float64, int, int, error) {
	half := max(d/2, time.Second)
	plain := w.measure(half, y)

	runtime.GC()
	var buf bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, 0, err
	}
	prof := w.measure(half, y)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)

	vals, err := foldProfile(buf.Bytes())
	if err != nil {
		return nil, 0, 0, err
	}
	var sum float64
	m := map[string]float64{}
	for layer, frac := range vals {
		sum += frac
		switch layer {
		case gcLayer:
			m["runtime.gc_frac"] = frac
		default:
			m[layer+".cpu_frac"] = frac
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, 0, 0, fmt.Errorf("cpu fractions sum to %v, not 1", sum)
	}
	m["sim.allocs_per_kinst"] = ratio(1000*float64(after.Mallocs-before.Mallocs), int(prof.insts))
	m["trace_overhead_pct"] = 0
	if base := plain.minstPerSec(); base > 0 {
		m["trace_overhead_pct"] = 100 * (base - prof.minstPerSec()) / base
	}
	m["job_ms_p90"] = plain.jobMSP90()
	m["server.memo_hit_ms_p50"] = median(millis(plain.cached))
	m["harness.memo_hit_ratio"] = 0
	if n := plain.memoHits + plain.memoMisses; n > 0 {
		m["harness.memo_hit_ratio"] = float64(plain.memoHits) / float64(n)
	}

	extra, err := w.layers(prof)
	if err != nil {
		return nil, 0, 0, err
	}
	for k, v := range extra {
		m[k] = v
	}
	return m, plain.attempted + prof.attempted, plain.failed + prof.failed, nil
}

// irLayerMetrics replays captured IR streams through every layer and
// adds the stream-generation, compiler, hint, decode and summarizer
// metrics measured on the same programs. The captured streams are also
// encoded as CDPCTRC1 images, so trace decoding and the online
// summarizer are timed on this workload's own reference shape.
func irLayerMetrics(caps []*irCapture) (map[string]float64, error) {
	sets := make([]replaySet, len(caps))
	var gen layerCost
	var prepare, hints []float64
	for i, c := range caps {
		sets[i] = c.set
		gen.add(c.gen)
		prepare = append(prepare, float64(c.prepare.Nanoseconds())/1e6)
		if c.set.hints != nil {
			hints = append(hints, float64(c.hints.Nanoseconds())/1e6)
		}
	}
	costs, err := replayAll(sets)
	if err != nil {
		return nil, err
	}
	m := costs.metrics()
	m["ir.stream_ns_per_ref"] = gen.nsPerCall()
	m["ir.stream_allocs_per_ref"] = gen.allocsPerCall()
	m["compiler.prepare_ms"] = median(prepare)
	m["core.hints_ms"] = median(hints)

	var dec layerCost
	var summarize []float64
	for _, s := range sets {
		image, err := encodeRefs(s)
		if err != nil {
			return nil, err
		}
		c, err := decodeCost(image)
		if err != nil {
			return nil, err
		}
		dec.add(c)
		f, err := trace.DecodeBytes(image)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		trace.PreferredColors(f, s.cfg.PageSize, s.cfg.Colors(), 0)
		summarize = append(summarize, float64(time.Since(start).Nanoseconds())/1e6)
	}
	m["trace.decode_ns_per_ref"] = dec.nsPerCall()
	m["trace.decode_allocs_per_ref"] = dec.allocsPerCall()
	m["trace.summarize_ms"] = median(summarize)
	return m, nil
}

// encodeRefs writes a captured stream as a CDPCTRC1 image.
func encodeRefs(s replaySet) ([]byte, error) {
	enc, err := trace.NewEncoder(s.cfg.NumCPUs)
	if err != nil {
		return nil, err
	}
	for _, r := range s.refs {
		if err := enc.Add(r.cpu, r.ref); err != nil {
			return nil, err
		}
	}
	return enc.File().AppendBinary(nil), nil
}

// decodeCost times decoding an image and draining every stream, as one
// batch; calls counts references.
func decodeCost(image []byte) (layerCost, error) {
	var err error
	c := timeCalls(0, func(lc *layerCost) {
		var f *trace.File
		if f, err = trace.DecodeBytes(image); err != nil {
			return
		}
		var r trace.Ref
		for cpu := 0; cpu < f.NumCPUs(); cpu++ {
			for s := f.Stream(cpu); s.Next(&r); {
				lc.calls++
			}
		}
	})
	return c, err
}

// mcpiErrPct is the sampled result's relative MCPI error in percent.
func mcpiErrPct(sampled, full *sim.Result) float64 {
	return 100 * math.Abs(sampled.MCPI()-full.MCPI()) / full.MCPI()
}
