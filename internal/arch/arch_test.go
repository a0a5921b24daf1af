package arch

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestCacheGeometryDerived(t *testing.T) {
	g := CacheGeometry{Size: 1 << 20, LineSize: 128, Assoc: 1}
	if got := g.Lines(); got != 8192 {
		t.Errorf("Lines() = %d, want 8192", got)
	}
	if got := g.Sets(); got != 8192 {
		t.Errorf("Sets() = %d, want 8192", got)
	}
	g2 := CacheGeometry{Size: 1 << 20, LineSize: 128, Assoc: 2}
	if got := g2.Sets(); got != 4096 {
		t.Errorf("2-way Sets() = %d, want 4096", got)
	}
}

func TestSetOfWrapsAtCacheSize(t *testing.T) {
	g := CacheGeometry{Size: 64 << 10, LineSize: 64, Assoc: 1}
	// Addresses that differ by exactly the cache size map to the same set.
	for _, a := range []uint64{0, 4096, 65536 - 64} {
		if g.SetOf(a) != g.SetOf(a+uint64(g.Size)) {
			t.Errorf("SetOf(%#x) != SetOf(+size)", a)
		}
	}
	if g.SetOf(0) == g.SetOf(64) {
		t.Error("adjacent lines should occupy distinct sets")
	}
}

func TestTagDisambiguatesConflictingLines(t *testing.T) {
	g := CacheGeometry{Size: 32 << 10, LineSize: 64, Assoc: 1}
	a, b := uint64(0x1000), uint64(0x1000)+uint64(g.Size)
	if g.SetOf(a) != g.SetOf(b) {
		t.Fatal("expected same set")
	}
	if g.TagOf(a) == g.TagOf(b) {
		t.Error("conflicting lines must have distinct tags")
	}
}

func TestColorsMatchPaperExamples(t *testing.T) {
	// §2.1: 1MB cache, 4KB pages: 256 colors direct-mapped, 128 two-way.
	c := Base(1, 1)
	if got := c.Colors(); got != 256 {
		t.Errorf("direct-mapped colors = %d, want 256", got)
	}
	c.L2.Assoc = 2
	if got := c.Colors(); got != 128 {
		t.Errorf("two-way colors = %d, want 128", got)
	}
}

func TestBaseAndAlphaValidate(t *testing.T) {
	for _, scale := range []int{1, 4, 16, 64} {
		for _, ncpu := range []int{1, 2, 4, 8, 16} {
			for _, cfg := range []Config{Base(ncpu, scale), Alpha(ncpu, scale)} {
				if err := cfg.Validate(); err != nil {
					t.Errorf("%s ncpu=%d: %v", cfg.Name, ncpu, err)
				}
			}
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	good := Base(4, 16)
	cases := map[string]func(*Config){
		"zero cpus":      func(c *Config) { c.NumCPUs = 0 },
		"odd page size":  func(c *Config) { c.PageSize = 3000 },
		"bad L2 line":    func(c *Config) { c.L2.LineSize = 96 },
		"tiny L2":        func(c *Config) { c.L2.Size = 2048; c.L2.LineSize = 64 },
		"no bus":         func(c *Config) { c.BusBytesPerCycle = 0 },
		"no memory":      func(c *Config) { c.MemoryMB = 0 },
		"non-pow2 cache": func(c *Config) { c.L1D.Size = 3 << 10; c.L1D.Assoc = 1; c.L1D.LineSize = 32 },
	}
	for name, mutate := range cases {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken config", name)
		}
	}
}

// TestValidateWaySpan: a geometry whose line size times set count is
// under 4 B is rejected, since a cache way's tag could then need more
// than 62 bits; from 4 B up, 1- and 2-B lines are accepted.
func TestValidateWaySpan(t *testing.T) {
	for _, c := range []struct {
		g  CacheGeometry
		ok bool
	}{
		{CacheGeometry{Size: 4, LineSize: 1, Assoc: 4}, false}, // 1 set
		{CacheGeometry{Size: 4, LineSize: 1, Assoc: 2}, false}, // 2 sets
		{CacheGeometry{Size: 4, LineSize: 2, Assoc: 2}, false}, // 1 set
		{CacheGeometry{Size: 4, LineSize: 1, Assoc: 1}, true},  // 4 sets
		{CacheGeometry{Size: 4, LineSize: 2, Assoc: 1}, true},  // 2 sets
		{CacheGeometry{Size: 16, LineSize: 4, Assoc: 4}, true}, // 1 set
	} {
		if err := c.g.Validate(); (err == nil) != c.ok {
			t.Errorf("%+v: Validate = %v, want accepted %v", c.g, err, c.ok)
		}
	}
}

func TestCyclesFromNS(t *testing.T) {
	c := Base(1, 1)
	if got := c.CyclesFromNS(500); got != 200 {
		t.Errorf("500ns at 400MHz = %d cycles, want 200", got)
	}
	if got := c.CyclesFromNS(750); got != 300 {
		t.Errorf("750ns at 400MHz = %d cycles, want 300", got)
	}
}

func TestScalePreservesColorRatio(t *testing.T) {
	// Scaling the machine divides the color count by the same factor, so the
	// data-set-pages : colors ratio is preserved when workloads scale too.
	full := Base(8, 1)
	quarter := Base(8, 4)
	if full.Colors() != 4*quarter.Colors() {
		t.Errorf("colors: full=%d quarter=%d, want 4x", full.Colors(), quarter.Colors())
	}
}

func TestLineAddrProperty(t *testing.T) {
	g := CacheGeometry{Size: 64 << 10, LineSize: 128, Assoc: 2}
	f := func(a uint64) bool {
		la := g.LineAddr(a)
		return la%uint64(g.LineSize) == 0 && la <= a && a-la < uint64(g.LineSize)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetTagRoundTripProperty(t *testing.T) {
	// (set, tag) uniquely identifies a line address.
	g := CacheGeometry{Size: 32 << 10, LineSize: 64, Assoc: 4}
	rng := rand.New(rand.NewSource(1))
	seen := map[[2]uint64]uint64{}
	for i := 0; i < 10000; i++ {
		a := g.LineAddr(uint64(rng.Int63n(1 << 30)))
		key := [2]uint64{uint64(g.SetOf(a)), g.TagOf(a)}
		if prev, ok := seen[key]; ok && prev != a {
			t.Fatalf("collision: %#x and %#x share (set,tag)=%v", prev, a, key)
		}
		seen[key] = a
	}
}

func TestWithL2DoesNotMutateReceiver(t *testing.T) {
	c := Base(4, 16)
	orig := c.L2
	_ = c.WithL2(CacheGeometry{Size: 256 << 10, LineSize: 64, Assoc: 2})
	if c.L2 != orig {
		t.Error("WithL2 mutated the receiver")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	orig := Base(8, 16)
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Errorf("round trip changed config:\n%+v\nvs\n%+v", got, orig)
	}
}

func TestReadConfigRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"Name":"x","Bogus":1}`,
		"empty":         `{}`,
		"bad json":      `{`,
	}
	for name, src := range cases {
		if _, err := ReadConfig(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadConfigFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	var buf bytes.Buffer
	if err := Alpha(4, 16).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumCPUs != 4 || c.ClockMHz != 350 {
		t.Errorf("loaded %+v", c)
	}
	if _, err := LoadConfigFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
