package arch_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

// FuzzReadConfig throws arbitrary bytes at the machine-file loader. A
// config it accepts must survive WriteJSON → ReadConfig unchanged, and
// building a machine from it must error or succeed, never panic.
func FuzzReadConfig(f *testing.F) {
	for _, cfg := range seedConfigs() {
		var b bytes.Buffer
		if err := cfg.WriteJSON(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte(`{"NumCPUs": 1}`))
	f.Add([]byte(`{"Name": "x", "Bogus": 1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := arch.ReadConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := cfg.WriteJSON(&b); err != nil {
			t.Fatalf("accepted config does not serialize: %v", err)
		}
		again, err := arch.ReadConfig(&b)
		if err != nil {
			t.Fatalf("serialized config rejected: %v\n%s", err, b.Bytes())
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Fatalf("round trip changed the config:\n%+v\n%+v", cfg, again)
		}
		buildMachine(cfg)
	})
}

// FuzzReadTopology throws arbitrary bytes at the topology-file loader.
// A topology it accepts, applied to the default machine, must validate
// or error, never panic; a valid result must build a machine the same
// way.
func FuzzReadTopology(f *testing.F) {
	for _, cfg := range seedConfigs() {
		if cfg.Topology == nil {
			continue
		}
		b, err := json.Marshal(cfg.Topology)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"Name": "t", "Levels": [{"Name": "L2", "Geom": {"Size": 65536, "LineSize": 128, "Assoc": 1}, "CPUsPerCache": 1, "HitCycles": 20, "Inclusive": true, "Slices": 1}]}`))
	f.Add([]byte(`{"Name": "t", "Levels": []}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := arch.ReadTopology(bytes.NewReader(data))
		if err != nil {
			return
		}
		cfg := arch.Base(8, 16) // cdpcsim's default machine
		cfg.Topology = &topo
		if cfg.Validate() != nil {
			return
		}
		buildMachine(cfg)
	})
}

// seedConfigs returns the shipped machines, plain and under every
// named topology.
func seedConfigs() []arch.Config {
	var out []arch.Config
	for _, base := range []arch.Config{arch.Base(8, 16), arch.Alpha(4, 16), arch.Base(1, 1)} {
		out = append(out, base)
		for _, name := range arch.TopologyNames() {
			cfg, err := arch.ApplyTopology(base, name)
			if err != nil {
				continue // the topology does not fit this machine
			}
			out = append(out, cfg)
		}
	}
	return out
}

// buildMachine builds a machine from a valid config when doing so stays
// within a few hundred megabytes: sim.New allocates in proportion to the
// declared memory, CPU count, cache and TLB sizes, which a file may set
// arbitrarily high. An error is fine; a panic fails the fuzz target.
func buildMachine(cfg arch.Config) {
	cfg.Colors() // the CLIs derive colors from any valid machine, whatever its size
	const maxLines = 1 << 20
	if cfg.NumCPUs > 1<<10 || cfg.TLBEntries > 1<<16 || cfg.MemoryMB > 1<<12 || cfg.MemoryMB<<20/cfg.PageSize > 1<<20 {
		return
	}
	lines := 0
	for _, g := range []arch.CacheGeometry{cfg.L1D, cfg.L1I} {
		if g.Lines() > maxLines {
			return
		}
		lines += cfg.NumCPUs * g.Lines()
	}
	for _, l := range cfg.Topo().Levels {
		if l.Geom.Lines() > maxLines {
			return
		}
		lines += cfg.NumCPUs / l.CPUsPerCache * l.Slices * l.Geom.Lines()
	}
	if lines > maxLines {
		return
	}
	_, _ = sim.New(sim.Options{Config: cfg})
}
