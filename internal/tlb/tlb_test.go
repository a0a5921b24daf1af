package tlb

import (
	"container/list"
	"math/rand"
	"testing"
)

func TestMissThenHit(t *testing.T) {
	tb := New(4)
	if tb.Lookup(10) {
		t.Error("cold lookup hit")
	}
	if !tb.Lookup(10) {
		t.Error("second lookup missed")
	}
	if tb.Lookups != 2 || tb.Misses != 1 {
		t.Errorf("counters %d/%d, want 2/1", tb.Misses, tb.Lookups)
	}
}

func TestLRUEviction(t *testing.T) {
	tb := New(2)
	tb.Lookup(1)
	tb.Lookup(2)
	tb.Lookup(1) // 2 becomes LRU
	tb.Lookup(3) // evicts 2
	if !tb.Probe(1) || tb.Probe(2) || !tb.Probe(3) {
		t.Errorf("resident set wrong: 1=%v 2=%v 3=%v", tb.Probe(1), tb.Probe(2), tb.Probe(3))
	}
}

func TestProbeDoesNotRefill(t *testing.T) {
	tb := New(4)
	if tb.Probe(7) {
		t.Error("probe of absent vpn returned true")
	}
	if tb.Len() != 0 {
		t.Error("probe installed a translation")
	}
	if tb.Misses != 0 {
		t.Error("probe counted as miss")
	}
}

func TestFlush(t *testing.T) {
	tb := New(4)
	tb.Lookup(1)
	tb.Lookup(2)
	tb.Flush()
	if tb.Len() != 0 {
		t.Error("flush left entries")
	}
	if tb.Lookup(1) {
		t.Error("hit after flush")
	}
}

func TestMissRate(t *testing.T) {
	tb := New(8)
	if tb.MissRate() != 0 {
		t.Error("empty TLB should report 0 miss rate")
	}
	tb.Lookup(1)
	tb.Lookup(1)
	tb.Lookup(1)
	tb.Lookup(2)
	if got := tb.MissRate(); got != 0.5 {
		t.Errorf("MissRate = %v, want 0.5", got)
	}
}

func TestCapacityBound(t *testing.T) {
	tb := New(16)
	for v := uint64(0); v < 100; v++ {
		tb.Lookup(v)
	}
	if tb.Len() != 16 {
		t.Errorf("Len = %d, want 16", tb.Len())
	}
	// The 16 most recent should be resident.
	for v := uint64(84); v < 100; v++ {
		if !tb.Probe(v) {
			t.Errorf("vpn %d should be resident", v)
		}
	}
}

// refLRU is the naive exact-LRU reference: a container/list in recency
// order (front = MRU) with a Go map index.
type refLRU struct {
	cap   int
	order *list.List
	index map[uint64]*list.Element
}

func newRefLRU(n int) *refLRU {
	return &refLRU{cap: n, order: list.New(), index: map[uint64]*list.Element{}}
}

func (r *refLRU) lookup(vpn uint64) bool {
	if e, ok := r.index[vpn]; ok {
		r.order.MoveToFront(e)
		return true
	}
	if r.order.Len() == r.cap {
		lru := r.order.Back()
		delete(r.index, lru.Value.(uint64))
		r.order.Remove(lru)
	}
	r.index[vpn] = r.order.PushFront(vpn)
	return false
}

func (r *refLRU) invalidate(vpn uint64) {
	if e, ok := r.index[vpn]; ok {
		delete(r.index, vpn)
		r.order.Remove(e)
	}
}

// TestAgainstListLRU diffs the TLB against the container/list reference
// under random lookups, probes, single-page invalidations and flushes,
// including vpn 0 and working sets just above and below capacity.
func TestAgainstListLRU(t *testing.T) {
	for _, entries := range []int{1, 2, 16, 64} {
		rng := rand.New(rand.NewSource(int64(entries)))
		tb := New(entries)
		ref := newRefLRU(entries)
		universe := int64(entries + entries/2 + 2)
		for i := 0; i < 50000; i++ {
			vpn := uint64(rng.Int63n(universe))
			switch op := rng.Intn(100); {
			case op < 80:
				if got, want := tb.Lookup(vpn), ref.lookup(vpn); got != want {
					t.Fatalf("entries=%d op %d: Lookup(%d) = %v, want %v", entries, i, vpn, got, want)
				}
			case op < 90:
				_, want := ref.index[vpn]
				if got := tb.Probe(vpn); got != want {
					t.Fatalf("entries=%d op %d: Probe(%d) = %v, want %v", entries, i, vpn, got, want)
				}
			case op < 99:
				tb.Invalidate(vpn)
				ref.invalidate(vpn)
			default:
				tb.Flush()
				ref = newRefLRU(entries)
			}
			if tb.Len() != ref.order.Len() {
				t.Fatalf("entries=%d op %d: Len = %d, want %d", entries, i, tb.Len(), ref.order.Len())
			}
		}
	}
}
