package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/sim"
)

// TestOutputCheckCatchesPerturbation feeds the output check a recorded
// result and perturbed copies of it: a bumped counter, two CPUs'
// accounting swapped (which every conservation sum still accepts), and
// a changed response counter.
func TestOutputCheckCatchesPerturbation(t *testing.T) {
	s := harness.Spec{Workload: "fpppp", CPUs: 4, Variant: harness.CDPC, Sampled: true}
	want := golden.Sampled[specKey(s)]
	res, err := harness.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(res, want.Result); err != nil {
		t.Fatalf("unperturbed result rejected: %v", err)
	}
	perturb := map[string]func(r *sim.Result){
		"stall bucket":  func(r *sim.Result) { r.PerCPU[1].StallConflict++ },
		"bus occupancy": func(r *sim.Result) { r.Bus.DataCycles++ },
		"fault count":   func(r *sim.Result) { r.PageFaults++ },
		"swapped CPUs":  func(r *sim.Result) { r.PerCPU[0], r.PerCPU[1] = r.PerCPU[1], r.PerCPU[0] },
	}
	for name, f := range perturb {
		c := *res
		c.PerCPU = append([]sim.CPUStats(nil), res.PerCPU...)
		f(&c)
		if err := checkResult(&c, want.Result); err == nil {
			t.Errorf("%s: perturbed result accepted", name)
		}
	}

	rd, err := startRound()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.stop()
	jr, _, err := rd.post(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryPrint(jr); got != want.Summary {
		t.Fatalf("response fingerprint %s, recorded %s", got, want.Summary)
	}
	jr.ConflictMisses++
	if summaryPrint(jr) == want.Summary {
		t.Error("perturbed response accepted")
	}
}

// TestOnePassEach runs one pass (one round for cdpcd-sampled, whose two
// clients share the daemon) of every workload and requires every job to
// pass its output check.
func TestOnePassEach(t *testing.T) {
	for name, mk := range benchWorkloads {
		w := mk()
		if err := w.setUp(5); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		win := w.measure(time.Nanosecond, newYardstick())
		if win.failed != 0 || win.attempted == 0 || len(win.jobs) != win.attempted {
			t.Errorf("%s: %d of %d jobs failed, %d timed", name, win.failed, win.attempted, len(win.jobs))
		}
		if len(win.setUps) != 1 || len(win.rates) != 1 || win.rates[0] <= 0 {
			t.Errorf("%s: set-ups %v, rates %v", name, win.setUps, win.rates)
		}
	}
}

// TestLayerReplayDeterministic replays captured streams twice and
// requires identical per-layer calls, hits and faults, and allocation
// counts equal up to the map-growth jitter of randomly seeded maps.
func TestLayerReplayDeterministic(t *testing.T) {
	sets := map[string]replaySet{}
	for _, s := range []harness.Spec{
		{Workload: "tomcatv", CPUs: 4, Variant: harness.CDPC},
		{Workload: "swim", CPUs: 16, Variant: harness.PageColoring}, // misses in the LLC
	} {
		c, err := captureIR(s, 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		sets[specKey(s)] = c.set
	}
	for name, s := range sets {
		first, err := replay(s)
		if err != nil {
			t.Fatal(err)
		}
		second, err := replay(s)
		if err != nil {
			t.Fatal(err)
		}
		if first.counts() != second.counts() {
			t.Errorf("%s: replays differ:\n%+v\n%+v", name, first.counts(), second.counts())
		}
		for i, a := range first.layers() {
			b := second.layers()[i]
			if diff := math.Abs(float64(a.allocs) - float64(b.allocs)); diff > 0.001*float64(a.allocs) {
				t.Errorf("%s: layer %d allocated %d then %d", name, i, a.allocs, b.allocs)
			}
		}
		if first.l1.calls == 0 || first.llc.calls == 0 || first.dir.calls == 0 {
			t.Errorf("%s: replay reached no external cache: %+v", name, first.counts())
		}
	}
}

// TestFoldProfile folds a hand-built profile: runtime frames land on
// the innermost layer frame, off-list repository packages are skipped,
// frameless samples split into GC and other, and yardstick samples are
// dropped.
func TestFoldProfile(t *testing.T) {
	names := []string{"",
		"repro/internal/cache.(*Shadow).Access", // 1
		"runtime.mapaccess2_fast64",             // 2
		"runtime.gcBgMarkWorker",                // 3
		"main.main",                             // 4
		"repro/internal/arch.Log2",              // 5
		"repro/internal/sim.(*Machine).step",    // 6
		"runtime.mallocgc",                      // 7
		"main.(*yardstick).run",                 // 8
	}
	var p []byte
	for id := uint64(1); id < uint64(len(names)); id++ {
		p = appendBytes(p, profFunctionField, appendVarint(appendVarint(nil, functionIDField, id), functionNameField, id))
	}
	// Location id -> function ids, innermost inlined frame first.
	locs := map[uint64][]uint64{1: {2}, 2: {1}, 3: {3}, 4: {4}, 5: {5, 6}, 6: {7}, 7: {8}}
	for id := uint64(1); id <= 7; id++ {
		loc := appendVarint(nil, locationIDField, id)
		for _, fn := range locs[id] {
			loc = appendBytes(loc, locationLineField, appendVarint(nil, lineFunctionField, fn))
		}
		p = appendBytes(p, profLocationField, loc)
	}
	sample := func(packed bool, value uint64, stack ...uint64) []byte {
		var s []byte
		if packed {
			var ids []byte
			for _, l := range stack {
				ids = binary.AppendUvarint(ids, l)
			}
			s = appendBytes(s, sampleLocationField, ids)
		} else {
			for _, l := range stack {
				s = appendVarint(s, sampleLocationField, l)
			}
		}
		return appendVarint(appendVarint(s, sampleValueField, value), sampleValueField, value*1e7)
	}
	p = appendBytes(p, profSampleField, sample(true, 3, 1, 2, 4))  // map lookup under the shadow cache
	p = appendBytes(p, profSampleField, sample(false, 2, 3))       // GC worker
	p = appendBytes(p, profSampleField, sample(false, 1, 4))       // benchmark's own code
	p = appendBytes(p, profSampleField, sample(true, 4, 6, 5, 4))  // malloc under arch inlined into sim
	p = appendBytes(p, profSampleField, sample(false, 5, 1, 7, 4)) // map lookup in the yardstick
	for _, s := range names {
		p = appendBytes(p, profStringField, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	fracs, err := foldProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cache": 0.3, gcLayer: 0.2, otherLayer: 0.1, "sim": 0.4}
	for layer, frac := range fracs {
		if math.Abs(frac-want[layer]) > 1e-12 {
			t.Errorf("%s: %v, want %v", layer, frac, want[layer])
		}
	}
	checkSum(t, fracs)
}

// TestFoldRealProfile folds a profile of real simulations.
func TestFoldRealProfile(t *testing.T) {
	s := harness.Spec{Workload: "swim", CPUs: 16, Variant: harness.PageColoring}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < time.Second; {
		if _, err := harness.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	fracs, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, fracs)
	if fracs["cache"] == 0 || fracs["ir"] == 0 || fracs["sim"] == 0 {
		t.Errorf("simulation folded to %v", fracs)
	}
}

func checkSum(t *testing.T, fracs map[string]float64) {
	t.Helper()
	var sum float64
	for _, f := range fracs {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v", sum)
	}
	if len(fracs) != len(cpuFracLayers)+2 {
		t.Errorf("%d layers folded, want %d", len(fracs), len(cpuFracLayers)+2)
	}
}

func appendVarint(b []byte, field int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func appendBytes(b []byte, field int, data []byte) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}
