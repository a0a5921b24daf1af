package cache

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
)

func dm(size, line int) arch.CacheGeometry {
	return arch.CacheGeometry{Size: size, LineSize: line, Assoc: 1}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(dm(1<<10, 64)) // 16 sets
	a := uint64(0)
	b := a + 1<<10 // same set, different tag
	if r := c.Access(a, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(b, false); r.Hit {
		t.Fatal("conflicting access hit")
	} else if !r.Evicted || r.VictimAddr != a {
		t.Fatalf("expected eviction of %#x, got %+v", a, r)
	}
	if r := c.Access(a, false); r.Hit {
		t.Fatal("a should have been evicted by b")
	}
}

func TestTwoWayAbsorbsPairConflict(t *testing.T) {
	g := arch.CacheGeometry{Size: 1 << 10, LineSize: 64, Assoc: 2}
	c := New(g)
	a, b := uint64(0), uint64(1<<10) // adjusted: same set in 2-way? sets = 8, set stride = 512
	b = a + uint64(g.Sets()*g.LineSize)
	c.Access(a, false)
	c.Access(b, false)
	if r := c.Access(a, false); !r.Hit {
		t.Error("two-way cache should hold both conflicting lines")
	}
	if r := c.Access(b, false); !r.Hit {
		t.Error("b should still be resident")
	}
}

func TestLRUOrdering(t *testing.T) {
	g := arch.CacheGeometry{Size: 4 * 64, LineSize: 64, Assoc: 4} // one set, 4 ways
	c := New(g)
	addrs := []uint64{0, 64, 128, 192}
	for _, a := range addrs {
		c.Access(a, false)
	}
	c.Access(0, false)         // make 0 MRU; LRU is now 64
	r := c.Access(4*64, false) // new line evicts LRU
	if !r.Evicted || r.VictimAddr != 64 {
		t.Errorf("expected LRU victim 64, got %+v", r)
	}
	if !c.Probe(0) || !c.Probe(128) || !c.Probe(192) {
		t.Error("non-LRU lines should survive")
	}
}

func TestWriteBackDirtyVictim(t *testing.T) {
	c := New(dm(1<<10, 64))
	c.Access(0, true) // dirty
	r := c.Access(1<<10, false)
	if !r.Evicted || !r.VictimDirty {
		t.Errorf("dirty victim should require writeback, got %+v", r)
	}
	// A read-only line evicts clean.
	c2 := New(dm(1<<10, 64))
	c2.Access(0, false)
	if r := c2.Access(1<<10, false); r.VictimDirty {
		t.Error("clean victim flagged dirty")
	}
}

func TestHitMarksDirty(t *testing.T) {
	c := New(dm(1<<10, 64))
	c.Access(0, false)
	c.Access(8, true) // write hit on same line
	if r := c.Access(1<<10, false); !r.VictimDirty {
		t.Error("write hit should have dirtied the line")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(dm(1<<10, 64))
	c.Access(0, true)
	present, dirty := c.Invalidate(32) // same line as 0
	if !present || !dirty {
		t.Errorf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Probe(0) {
		t.Error("line still present after invalidate")
	}
	if present, _ := c.Invalidate(0); present {
		t.Error("double invalidate reported presence")
	}
}

func TestCleanClearsDirtyBit(t *testing.T) {
	c := New(dm(1<<10, 64))
	c.Access(0, true)
	c.Clean(0)
	if r := c.Access(1<<10, false); r.VictimDirty {
		t.Error("Clean did not clear dirty bit")
	}
}

func TestProbeDoesNotDisturbLRU(t *testing.T) {
	g := arch.CacheGeometry{Size: 2 * 64, LineSize: 64, Assoc: 2}
	c := New(g)
	c.Access(0, false)
	c.Access(128, false) // same set (1 set), 0 is now LRU
	c.Probe(0)           // must NOT promote 0
	r := c.Access(256, false)
	if r.VictimAddr != 0 {
		t.Errorf("Probe disturbed LRU: victim %#x, want 0", r.VictimAddr)
	}
}

func TestFlushEmptiesCache(t *testing.T) {
	c := New(dm(1<<10, 64))
	for a := uint64(0); a < 1<<10; a += 64 {
		c.Access(a, true)
	}
	c.Flush()
	if got := c.Utilization(); got != 0 {
		t.Errorf("utilization after flush = %v, want 0", got)
	}
}

func TestUtilization(t *testing.T) {
	c := New(dm(1<<10, 64)) // 16 sets
	for a := uint64(0); a < 512; a += 64 {
		c.Access(a, false) // fill 8 of 16 sets
	}
	if got := c.Utilization(); got != 0.5 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
}

func TestSameLineDifferentOffsetsHit(t *testing.T) {
	c := New(dm(1<<10, 64))
	c.Access(100, false)
	if r := c.Access(127, false); !r.Hit {
		t.Error("same-line access should hit")
	}
	if r := c.Access(128, false); r.Hit {
		t.Error("next line should miss")
	}
}

func TestCacheMatchesShadowWhenFullyAssociative(t *testing.T) {
	// Property: a fully-associative Cache and a Shadow of equal capacity
	// agree on every access outcome (both are true LRU).
	g := arch.CacheGeometry{Size: 16 * 64, LineSize: 64, Assoc: 16}
	c := New(g)
	s := NewShadow(16, 64)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(64)) * 64
		hit := c.Access(addr, false).Hit
		shadowHit := s.Access(addr)
		if hit != shadowHit {
			t.Fatalf("iteration %d addr %#x: cache hit=%v shadow hit=%v", i, addr, hit, shadowHit)
		}
	}
}

func TestShadowEvictsLRU(t *testing.T) {
	s := NewShadow(2, 64)
	s.Access(0)
	s.Access(64)
	s.Access(0)   // 64 is LRU
	s.Access(128) // evicts 64
	if !s.Access(0) {
		t.Error("0 should still be resident")
	}
	if s.Access(64) {
		t.Error("64 should have been evicted")
	}
}

func TestShadowRemove(t *testing.T) {
	s := NewShadow(4, 64)
	s.Access(0)
	s.Remove(32) // same line
	if s.Access(0) {
		t.Error("removed line reported as hit")
	}
	s.Remove(999999) // absent: must not panic
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := New(arch.CacheGeometry{Size: 64 << 10, LineSize: 128, Assoc: 2})
	rng := rand.New(rand.NewSource(7))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095], i&7 == 0)
	}
}

func BenchmarkShadowAccess(b *testing.B) {
	s := NewShadow(512, 128)
	rng := rand.New(rand.NewSource(7))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(addrs[i&4095])
	}
}

func TestSetProfile(t *testing.T) {
	c := New(dm(1<<10, 64)) // 16 sets
	if c.Profile() != nil {
		t.Fatal("profile should be nil before EnableSetProfile")
	}
	c.EnableSetProfile()
	p := c.Profile()
	if p == nil || len(p.Misses) != 16 {
		t.Fatalf("profile = %+v, want 16 sets", p)
	}

	c.Access(0, false)     // miss, set 0
	c.Access(0, false)     // hit: no profile change
	c.Access(1<<10, false) // miss, set 0, evicts 0
	c.Access(2*64, false)  // miss, set 2
	if p.Misses[0] != 2 || p.Misses[2] != 1 {
		t.Errorf("misses = %v", p.Misses)
	}
	if p.Evictions[0] != 1 || p.Evictions[2] != 0 {
		t.Errorf("evictions = %v", p.Evictions)
	}

	c.Invalidate(2 * 64)
	c.Invalidate(5 * 64) // not present: no count
	if p.Invalidations[2] != 1 || p.Invalidations[5] != 0 {
		t.Errorf("invalidations = %v", p.Invalidations)
	}

	occ := c.SetOccupancy()
	if len(occ) != 16 {
		t.Fatalf("occupancy sets = %d", len(occ))
	}
	// Direct-mapped: set 0 holds one line (full), set 2 was invalidated.
	if occ[0] != 1 || occ[2] != 0 {
		t.Errorf("occupancy = %v", occ)
	}
}

func TestSetProfileDisabledIsFree(t *testing.T) {
	// Without EnableSetProfile the hot path must not allocate or count.
	c := New(dm(1<<10, 64))
	c.Access(0, false)
	c.Access(1<<10, false)
	c.Invalidate(0)
	if c.Profile() != nil {
		t.Error("profile materialized without being enabled")
	}
}
