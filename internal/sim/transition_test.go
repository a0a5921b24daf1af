package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/trace"
)

// TestAccountingTouchesNoHierarchyState feeds the same random data,
// instruction and prefetch references to two identical machines: one
// through step (transition plus accounting), the other through warmRef
// (transition alone). If accounting moved any hierarchy state, or a
// transition read the clock or the bus, the two would diverge. The
// topologies put two CPUs on each LLC unit and an inclusive mid level
// with lines smaller than the LLC's under it, so inclusion
// back-invalidation, sharing and coherence all come into play.
func TestAccountingTouchesNoHierarchyState(t *testing.T) {
	var prefetchedHits, upgrades, writebacks uint64
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := randomSharedConfig(rng)
		refs := randomRefs(rng, cfg.NumCPUs, 4000)
		detailed, warm := newMachine(t, cfg), newMachine(t, cfg)
		for i, r := range refs {
			cpu := i % cfg.NumCPUs
			if err := detailed.step(detailed.cpus[cpu], &r); err != nil {
				t.Fatalf("seed %d: step: %v", seed, err)
			}
			if err := warm.warmRef(warm.cpus[cpu], &r); err != nil {
				t.Fatalf("seed %d: warmRef: %v", seed, err)
			}
		}
		for _, c := range detailed.cpus {
			prefetchedHits += c.stats.PrefetchedHits
			upgrades += c.stats.Upgrades
		}
		writebacks += detailed.bus.Transactions(bus.Writeback)
		a, b := hierarchyState(detailed, refs), hierarchyState(warm, refs)
		if len(a) != len(b) {
			t.Fatalf("seed %d: %d state entries after step, %d after warmRef", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d (%s): after step %s, after warmRef %s", seed, cfg.Topology.Name, a[i], b[i])
			}
		}
	}
	// The references must reach the paths whose state could diverge.
	if prefetchedHits == 0 || upgrades == 0 || writebacks == 0 {
		t.Errorf("too little exercised: %d prefetched hits, %d upgrades, %d writebacks", prefetchedHits, upgrades, writebacks)
	}
}

func newMachine(t *testing.T, cfg arch.Config) *Machine {
	t.Helper()
	m, err := New(Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomSharedConfig draws a 2- or 4-CPU machine whose LLC units are
// each shared by two CPUs, under one inclusive intermediate level with
// lines smaller than the LLC's.
func randomSharedConfig(rng *rand.Rand) arch.Config {
	cfg := smallConfig([]int{2, 4}[rng.Intn(2)])
	cfg.TLBEntries = 16 // fewer than the pages touched, so entries get replaced
	midLine := []int{32, 64}[rng.Intn(2)]
	mid := arch.Level{
		Name:         "L2",
		Geom:         arch.CacheGeometry{Size: []int{2 << 10, 4 << 10, 8 << 10}[rng.Intn(3)], LineSize: midLine, Assoc: 1 << rng.Intn(3)},
		CPUsPerCache: 1 + rng.Intn(2),
		HitCycles:    6,
		Inclusive:    true,
		Slices:       1,
	}
	llc := arch.Level{
		Name:         "L3",
		Geom:         arch.CacheGeometry{Size: []int{16 << 10, 32 << 10}[rng.Intn(2)], LineSize: 128, Assoc: 1 << rng.Intn(2)},
		CPUsPerCache: 2,
		HitCycles:    cfg.L2HitCycles,
		Inclusive:    true,
		Slices:       1,
	}
	cfg.Topology = &arch.Topology{
		Name:   fmt.Sprintf("cpus%d-mid%dx%d-%dB-llc%dx%d", cfg.NumCPUs, mid.Geom.Size, mid.Geom.Assoc, midLine, llc.Geom.Size, llc.Geom.Assoc),
		Levels: []arch.Level{mid, llc},
	}
	return cfg
}

// randomRefs draws n references, meant to be dealt round-robin to ncpu
// CPUs: data streams with random jumps over a region a few times the
// LLC, prefetches a few lines ahead of the stream, and instruction
// fetches looping over a small code region.
func randomRefs(rng *rand.Rand, ncpu, n int) []trace.Ref {
	const (
		data  = 0x100000
		code  = 0x800000
		pages = 48
	)
	cursor := make([]uint64, ncpu)
	for i := range cursor {
		cursor[i] = data + uint64(rng.Intn(pages*4096))&^7
	}
	refs := make([]trace.Ref, n)
	for i := range refs {
		cpu := i % ncpu
		if rng.Intn(16) == 0 {
			cursor[cpu] = data + uint64(rng.Intn(pages*4096))&^7
		}
		r := trace.Ref{Size: 8, Work: uint32(rng.Intn(4))}
		switch k := rng.Intn(10); {
		case k < 1:
			r.Kind, r.VAddr = trace.Inst, code+uint64(rng.Intn(8*4096))&^31
		case k < 3:
			r.Kind, r.VAddr = trace.Prefetch, cursor[cpu]+uint64(128*(1+rng.Intn(3)))
		default:
			r.Kind, r.VAddr = trace.Read, cursor[cpu]
			if rng.Intn(3) == 0 {
				r.Kind = trace.Write
			}
			cursor[cpu] += 8 * uint64(1+rng.Intn(8))
		}
		if r.VAddr >= data+pages*4096 && r.VAddr < code {
			r.VAddr -= pages * 4096
			cursor[cpu] = r.VAddr
		}
		refs[i] = r
	}
	return refs
}

// hierarchyState lists, in a fixed order, the state every reference in
// refs could have left behind: (present, dirty) of its line at every
// level, the shadow occupancy, its TLB entries, its directory holders
// and every CPU's pending-prefetch lines. Reading a line's presence
// invalidates it, so the machine is spent afterwards.
func hierarchyState(m *Machine, refs []trace.Ref) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	for _, u := range m.llcUnits {
		add("shadow %d len %d", u.id, u.shadow.Len())
	}
	for _, c := range m.cpus {
		keys := make([]uint64, 0, len(c.pending))
		for la := range c.pending {
			keys = append(keys, la)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		add("cpu %d pending %x", c.id, keys)
	}
	for _, r := range refs {
		va := r.VAddr
		for _, c := range m.cpus {
			pbase, ok := c.tlb.Peek(va >> m.pageShift)
			add("cpu %d tlb %#x: %#x %v", c.id, va, pbase, ok)
			for li, l1 := range []*cache.Cache{c.l1d, c.l1i} {
				present, dirty := l1.Invalidate(va)
				add("cpu %d l1 %d %#x: %v %v", c.id, li, va, present, dirty)
			}
		}
		pa, ok := m.as.TranslateNoFault(va)
		if !ok {
			add("%#x unmapped", va)
			continue
		}
		add("%#x holders %d", pa, m.dir.Holders(pa))
		for _, c := range m.cpus {
			for li, mc := range c.mids {
				present, dirty := mc.Invalidate(pa)
				add("cpu %d mid %d %#x: %v %v", c.id, li, pa, present, dirty)
			}
		}
		for _, u := range m.llcUnits {
			present, dirty := u.cacheFor(pa).Invalidate(pa)
			add("llc %d %#x: %v %v", u.id, pa, present, dirty)
		}
	}
	return out
}
