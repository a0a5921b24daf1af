package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/server"
)

// TestMain lets a test run the command itself: with CDPCSIM_RUN_MAIN
// set, the test binary is cdpcsim.
func TestMain(m *testing.M) {
	if os.Getenv("CDPCSIM_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadSpecs requires every flag combination harness.Check
// rejects to exit 1 with Check's error, naming the offending spec field,
// before anything simulates.
func TestRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		field string
	}{
		{[]string{"-machine", "cray"}, "Machine"},
		{[]string{"-isolate"}, "Isolate"},
		{[]string{"-sched", "timeslice"}, "Sched"},
		{[]string{"-quantum", "1000"}, "Sched"},
		{[]string{"-procs", "2", "-sched", "gang"}, "Sched"},
		{[]string{"-corun", "tomcatv/round-robin"}, "CoRunners[0].Variant"},
		{[]string{"-procs", "2", "-variant", "cdpc-touch"}, "Variant"},
	} {
		args := append([]string{"-workload", "tomcatv", "-cpus", "1", "-scale", "64"}, tc.args...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "CDPCSIM_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: exit %v, want status 1\n%s", tc.args, err, out)
			continue
		}
		if want := "cdpcsim: harness: " + tc.field + ": "; !strings.HasPrefix(string(out), want) {
			t.Errorf("%v: output %q, want it to start with %q", tc.args, out, want)
		}
	}
}

// TestCustomProgramCoRunnerParity requires cdpcd, harness.RunProgram and
// cdpcsim -program to reject a custom program with co-runners through
// the one rule, harness.CheckProgram, with the same message: cdpcd as
// bad_coschedule on co_runners, RunProgram as a SpecError on CoRunners,
// cdpcsim as that error on exit status 1.
func TestCustomProgramCoRunnerParity(t *testing.T) {
	const text = "program p\narray a elems=64\nphase m occurs=1\n  nest n parallel iters=4 inner=4 work=1 sched=even\n    load a outer=4\n"
	prog, err := ir.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	_, err = harness.RunProgram(prog, harness.Spec{CPUs: 2, CoRunners: []harness.CoRunner{{}}})
	var se *harness.SpecError
	if !errors.As(err, &se) || se.Field != "CoRunners" || se.Rule != harness.RuleCoSchedule {
		t.Fatalf("RunProgram: %v, want a co-scheduling SpecError on CoRunners", err)
	}

	srv := server.New(server.Config{Workers: 1})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	body, err := json.Marshal(server.JobRequest{Program: text, CPUs: 2, CoRunners: []server.CoRunnerRequest{{}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rej server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	if got := rej.Error; resp.StatusCode != http.StatusBadRequest || got.Code != server.CodeBadCoSchedule || got.Field != "co_runners" || got.Message != se.Msg {
		t.Errorf("cdpcd: status %d, error %+v, want 400 %s on co_runners: %q", resp.StatusCode, got, server.CodeBadCoSchedule, se.Msg)
	}

	file := filepath.Join(t.TempDir(), "p.prog")
	if err := os.WriteFile(file, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-program", file, "-procs", "2", "-cpus", "2")
	cmd.Env = append(os.Environ(), "CDPCSIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || string(out) != "cdpcsim: "+se.Error()+"\n" {
		t.Errorf("cdpcsim: exit %v, output %q, want status 1 and %q", err, out, "cdpcsim: "+se.Error())
	}
}
