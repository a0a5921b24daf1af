package sim

import (
	"fmt"
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
	"internal/coherence": append(append([]string{"(*Directory).AccessInto", "(*Directory).Evict"},
		tableHelpers("(*table[%s])", "slot", "line", "wordIndex", "invalidateOthers")...),
		tableHelpers("(*lineState[%s])", "wroteOther", "writeSole")...),
	"internal/sim": {"(*llcUnit).cacheFor", "(*Machine).llcLineAddr",
		"(*winnerTree).update", "(*winnerTree).runnerUp", "(*winnerTree).min", "(*winnerTree).key"},
	"internal/cache": {"(*Cache).key", "(*Cache).setOf", "(*Cache).set", "(*Cache).lineAddrOf", "(*Shadow).Access"},
	"internal/flat": append([]string{"(*Map).Get"},
		lruHelpers("Touch", "home", "find", "unlink", "pushFront", "erase")...),
	"internal/tlb": {"(*TLB).Fill", "(*TLB).Peek"},
}

// outOfLine lists, per package, the functions that must stay calls: the
// coherence table's and the LRU's constructors of their access
// closures, which inlined into New or NewLRU would compile the closure
// outside the generic code, where the closure's helpers stay calls on
// every access, and the directory's spill path, which the access path
// enters only for a line with two writers or a word past 15.
var outOfLine = map[string][]string{
	"internal/coherence": tableHelpers("(*table[%s])", "directory", "writeSpilled", "spilledWroteOther"),
	"internal/flat":      lruHelpers("toucher"),
}

// tableHelpers names the coherence table's or line state's helpers, its
// receiver a format with the mask width's shape for %s, as the compiler
// reports them: once per mask width, each width's code compiled apart.
func tableHelpers(receiver string, helpers ...string) []string {
	var names []string
	for _, width := range []string{"uint8", "uint16", "uint32", "uint64"} {
		for _, h := range helpers {
			names = append(names, fmt.Sprintf(receiver, "go.shape."+width)+"."+h)
		}
	}
	return names
}

// lruHelpers names the flat LRU's helpers as the compiler reports them:
// once per form, wide and narrow, each form's code compiled apart.
func lruHelpers(helpers ...string) []string {
	var names []string
	for _, form := range []string{"go.shape.uint64,go.shape.int32", "go.shape.uint32,go.shape.uint16"} {
		for _, h := range helpers {
			names = append(names, "(*LRU["+form+"])."+h)
		}
	}
	return names
}

// inlineVerdict matches the compiler's -m=2 verdict on one function:
// "can inline NAME with cost N as: BODY" or "cannot inline NAME:
// REASON", capturing the package directory, the verdict, the name and
// the cost or reason.
var inlineVerdict = regexp.MustCompile(`^(internal/[a-z]+)/[^:]+:\d+:\d+: (can|cannot) inline (\S+?):? (.*?)(?: as: .*)?$`)

// TestHotHelpersInline builds the hot-path packages with -gcflags=-m=2
// and fails, naming each function and the compiler's reason, unless
// every helper in hotInline is reported as "can inline" and every
// function in outOfLine is not. The compiler's verdict depends on the
// source and on the Go toolchain's version, not on host load. Inlining
// costs change between toolchain releases, so a failure right after a
// Go upgrade with no source change means the budget needs checking
// again, not that the code regressed; the failure names the toolchain
// that gave the verdict.
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
	for pkg, fns := range outOfLine {
		for _, fn := range fns {
			switch v, ok := verdicts[pkg+" "+fn]; {
			case !ok:
				t.Errorf("%s %s: the compiler reported no inlining verdict (renamed or deleted?)", pkg, fn)
			case v.can:
				t.Errorf("%s %s now inlines (%s); it must stay out of line", pkg, fn, v.detail)
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
