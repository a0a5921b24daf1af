package sim

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// hotInline lists, per package, the helpers the per-reference path and
// the event loop call on their common paths and rely on the compiler to
// inline. A helper that grows past Go's inlining budget
// becomes a call on that path without changing any result, so no golden
// test notices it.
var hotInline = map[string][]string{
	"internal/coherence": {"(*Directory).slot", "(*Directory).at", "(*Directory).wordIndex", "(*Directory).wordWriter"},
	"internal/sim": {"(*llcUnit).cacheFor", "(*Machine).llcLineAddr",
		"(*winnerTree).update", "(*winnerTree).runnerUp", "(*winnerTree).min", "(*winnerTree).key"},
	"internal/cache": {"(*Cache).lineAddr", "(*Cache).setOf", "(*Cache).set"},
	"internal/flat":  {"(*Map).Get", "(*LRU).Touch"},
	"internal/tlb":   {"(*TLB).Fill", "(*TLB).Peek"},
}

// inlineVerdict matches the compiler's -m=2 verdict on one function:
// "can inline NAME with cost N as: BODY" or "cannot inline NAME:
// REASON", capturing the package directory, the verdict, the name and
// the cost or reason.
var inlineVerdict = regexp.MustCompile(`^(internal/[a-z]+)/[^:]+:\d+:\d+: (can|cannot) inline (\S+?):? (.*?)(?: as: .*)?$`)

// TestHotHelpersInline builds the hot-path packages with -gcflags=-m=2
// and fails, naming each function and the compiler's reason, unless
// every helper in hotInline is reported as "can inline". The compiler's
// verdict depends on the source and on the Go toolchain's version, not on
// host load. Inlining costs change between toolchain releases, so a
// failure right after a Go upgrade with no source change means the
// budget needs checking again, not that the code regressed; the failure
// names the toolchain that gave the verdict.
func TestHotHelpersInline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds five packages with the compiler's inlining report; skipped in -short")
	}
	args := []string{"build", "-gcflags=-m=2"}
	for pkg := range hotInline {
		args = append(args, "./"+pkg)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = filepath.Join("..", "..")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	type verdict struct {
		can    bool
		detail string // the cost, or why not
	}
	verdicts := map[string]verdict{} // keyed by "pkg fn"
	for _, line := range strings.Split(string(out), "\n") {
		if m := inlineVerdict.FindStringSubmatch(line); m != nil {
			verdicts[m[1]+" "+m[3]] = verdict{can: m[2] == "can", detail: m[4]}
		}
	}
	for pkg, fns := range hotInline {
		for _, fn := range fns {
			switch v, ok := verdicts[pkg+" "+fn]; {
			case !ok:
				t.Errorf("%s %s: the compiler reported no inlining verdict (renamed or deleted?)", pkg, fn)
			case !v.can:
				t.Errorf("%s %s no longer inlines: %s", pkg, fn, v.detail)
			}
		}
	}
	if t.Failed() {
		version, err := exec.Command("go", "version").Output()
		if err != nil {
			version = []byte(err.Error())
		}
		t.Logf("verdicts from %s", strings.TrimSpace(string(version)))
	}
}
