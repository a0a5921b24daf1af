package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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
