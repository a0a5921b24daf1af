package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/sim"
)

// goldenJSON holds the recorded fingerprint of every simulated spec
// (regenerate with perfbench -record after an intended output change).
//
//go:embed testdata/golden.json
var goldenJSON []byte

// goldenFile is the schema of testdata/golden.json.
type goldenFile struct {
	// FullFig6 maps a spec key to its result fingerprint.
	FullFig6 map[string]string `json:"full-fig6"`
	// FullFig6Sampled maps a headline spec key to the fingerprint of its
	// phase-sampled run (the traced run's accuracy comparison).
	FullFig6Sampled map[string]string `json:"full-fig6-sampled"`
	// Sampled maps a spec key to its cdpcd-sampled fingerprints.
	Sampled map[string]sampledGolden `json:"cdpcd-sampled"`
}

// sampledGolden fingerprints one cdpcd-sampled spec.
type sampledGolden struct {
	// Result fingerprints the sampled sim.Result.
	Result string `json:"result"`
	// Summary fingerprints the counters of the job's HTTP response.
	Summary string `json:"summary"`
	// Full fingerprints the full-fidelity reference run of the spec.
	Full string `json:"full"`
}

var golden = func() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("perfbench: embedded golden.json: %v", err))
	}
	return g
}()

// fingerprint hashes every simulated counter of a result: wall cycles,
// per-CPU cycle buckets and miss classes, bus occupancy, fault counts
// and the sampling accounting.
func fingerprint(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: fingerprint: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// checkResult verifies a result against its recorded fingerprint and
// the simulator's own conservation audit.
func checkResult(res *sim.Result, want string) error {
	if vs := res.Audit(); len(vs) > 0 {
		return fmt.Errorf("audit: %v", vs[0])
	}
	if want == "" {
		return fmt.Errorf("no recorded fingerprint")
	}
	if got := fingerprint(res); got != want {
		return fmt.Errorf("fingerprint %s, recorded %s", got, want)
	}
	return nil
}

func specKey(s harness.Spec) string {
	return fmt.Sprintf("%s/%d/%s", s.Workload, s.CPUs, s.Variant)
}

// recordGolden recomputes every fingerprint and writes the golden file.
func recordGolden(path string) error {
	golden = goldenFile{} // set-up must not check against the old record
	g := goldenFile{FullFig6: map[string]string{}, FullFig6Sampled: map[string]string{}, Sampled: map[string]sampledGolden{}}
	for _, s := range fig6Specs() {
		res, err := harness.Run(s)
		if err != nil {
			return err
		}
		g.FullFig6[specKey(s)] = fingerprint(res)
		s.Sampled = true
		if res, err = harness.Run(s); err != nil {
			return err
		}
		g.FullFig6Sampled[specKey(s)] = fingerprint(res)
	}
	rd, err := startRound()
	if err != nil {
		return err
	}
	defer rd.stop()
	for _, s := range sampledSpecs() {
		jr, _, err := rd.post(s)
		if err != nil {
			return fmt.Errorf("%s: %w", specKey(s), err)
		}
		sampled, err := rd.srv.Scheduler().Run(s)
		if err != nil {
			return err
		}
		full := s
		full.Sampled = false
		ref, err := harness.Run(full)
		if err != nil {
			return err
		}
		g.Sampled[specKey(s)] = sampledGolden{Result: fingerprint(sampled), Summary: summaryPrint(jr), Full: fingerprint(ref)}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
