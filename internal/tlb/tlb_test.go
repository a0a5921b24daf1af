package tlb

import (
	"cmp"
	"container/list"
	"math/rand"
	"slices"
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
}

func TestLRUEviction(t *testing.T) {
	tb := New(2)
	tb.Lookup(1)
	tb.Lookup(2)
	tb.Lookup(1) // 2 becomes LRU
	tb.Lookup(3) // evicts 2
	if !resident(tb, 1) || resident(tb, 2) || !resident(tb, 3) {
		t.Errorf("resident set wrong: 1=%v 2=%v 3=%v", resident(tb, 1), resident(tb, 2), resident(tb, 3))
	}
}

// resident reports whether vpn is in tb, without touching it.
func resident(tb *TLB, vpn uint64) bool {
	_, ok := tb.Peek(vpn)
	return ok
}

func TestPeekDoesNotRefill(t *testing.T) {
	tb := New(4)
	if resident(tb, 7) {
		t.Error("peek of absent vpn returned true")
	}
	if tb.Len() != 0 {
		t.Error("peek installed a translation")
	}
	if tb.Lookup(7) {
		t.Error("lookup after a peek hit")
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
		if !resident(tb, v) {
			t.Errorf("vpn %d should be resident", v)
		}
	}
}

// refEntry is one translation of the reference TLB.
type refEntry struct{ vpn, pbase uint64 }

// refLRU is the naive exact-LRU reference: a container/list of
// translations in recency order (front = MRU) with a Go map index.
type refLRU struct {
	cap   int
	order *list.List
	index map[uint64]*list.Element
}

func newRefLRU(n int) *refLRU {
	return &refLRU{cap: n, order: list.New(), index: map[uint64]*list.Element{}}
}

// translate mirrors TLB.Translate: a hit moves vpn to the front and
// returns its base; a miss evicts the back when full and installs vpn
// with base 0 at the front.
func (r *refLRU) translate(vpn uint64) (uint64, bool) {
	if e, ok := r.index[vpn]; ok {
		r.order.MoveToFront(e)
		return e.Value.(*refEntry).pbase, true
	}
	if r.order.Len() == r.cap {
		lru := r.order.Back()
		delete(r.index, lru.Value.(*refEntry).vpn)
		r.order.Remove(lru)
	}
	r.index[vpn] = r.order.PushFront(&refEntry{vpn: vpn})
	return 0, false
}

// fill mirrors TLB.Fill right after a missing translate: the front
// entry is the one that miss installed.
func (r *refLRU) fill(pbase uint64) { r.order.Front().Value.(*refEntry).pbase = pbase }

func (r *refLRU) peek(vpn uint64) (uint64, bool) {
	if e, ok := r.index[vpn]; ok {
		return e.Value.(*refEntry).pbase, true
	}
	return 0, false
}

func (r *refLRU) invalidate(vpn uint64) {
	if e, ok := r.index[vpn]; ok {
		delete(r.index, vpn)
		r.order.Remove(e)
	}
}

// entries returns the reference translations, most recently used first.
func (r *refLRU) entries() []refEntry {
	var out []refEntry
	for e := r.order.Front(); e != nil; e = e.Next() {
		out = append(out, *e.Value.(*refEntry))
	}
	return out
}

// entries returns tb's resident translations, most recently used first.
func entries(tb *TLB) []refEntry {
	var resident []entry
	for _, e := range tb.entries {
		if e.stamp != 0 {
			resident = append(resident, e)
		}
	}
	slices.SortFunc(resident, func(a, b entry) int { return cmp.Compare(b.stamp, a.stamp) })
	out := make([]refEntry, len(resident))
	for k, e := range resident {
		out[k] = refEntry{vpn: e.vpn, pbase: e.base}
	}
	return out
}

// tlbOp is one operation of a TLB-versus-reference diff.
type tlbOp uint8

const (
	opTranslate   tlbOp = iota // Translate, then Fill on a miss
	opTranslateNF              // Translate without Fill (Lookup's behaviour)
	opPeek
	opInvalidate
	opFlush
	numOps
)

// applyOp runs op on tb and ref and fails t on any difference: every
// result, the resident translations in recency order with their bases,
// Len and the vpn index. A missing Translate fills the base pbase.
func applyOp(t *testing.T, tb *TLB, ref *refLRU, op tlbOp, vpn, pbase uint64, step int) {
	t.Helper()
	switch op {
	case opTranslate, opTranslateNF:
		gb, gh := tb.Translate(vpn)
		wb, wh := ref.translate(vpn)
		if gb != wb || gh != wh {
			t.Fatalf("step %d: Translate(%d) = (%#x, %v), want (%#x, %v)", step, vpn, gb, gh, wb, wh)
		}
		if !gh && op == opTranslate {
			tb.Fill(pbase)
			ref.fill(pbase)
		}
	case opPeek:
		gb, gok := tb.Peek(vpn)
		wb, wok := ref.peek(vpn)
		if gb != wb || gok != wok {
			t.Fatalf("step %d: Peek(%d) = (%#x, %v), want (%#x, %v)", step, vpn, gb, gok, wb, wok)
		}
	case opInvalidate:
		tb.Invalidate(vpn)
		ref.invalidate(vpn)
	case opFlush:
		tb.Flush()
		ref.order.Init()
		clear(ref.index)
	}
	if got, want := entries(tb), ref.entries(); !slices.Equal(got, want) {
		t.Fatalf("step %d (op %d, vpn %d): entries %v, want %v", step, op, vpn, got, want)
	}
	if tb.Len() != ref.order.Len() {
		t.Fatalf("step %d: Len = %d, want %d", step, tb.Len(), ref.order.Len())
	}
	checkIndex(t, tb, step)
}

// checkIndex fails t unless tb's index maps exactly the resident vpns
// to their slots: every resident slot's vpn finds that slot, and the
// index holds no other entry.
func checkIndex(t *testing.T, tb *TLB, step int) {
	t.Helper()
	resident := 0
	for i, e := range tb.entries {
		if e.stamp == 0 {
			continue
		}
		resident++
		if got, ok := tb.index.Get(e.vpn); !ok || got != uint64(i) {
			t.Fatalf("step %d: index[%d] = (%d, %v), want slot %d", step, e.vpn, got, ok, i)
		}
	}
	if tb.index.Len() != resident || tb.index.Len() != tb.Len() {
		t.Fatalf("step %d: index holds %d entries, want %d resident (Len %d)", step, tb.index.Len(), resident, tb.Len())
	}
}

// maxVPN is the largest vpn, an edge case beside vpn 0 (which the index
// stores outside its table).
const maxVPN = ^uint64(0)

// TestAgainstListLRU diffs the TLB against the container/list reference
// under random translations (with and without a fill), lookups, peeks,
// single-page invalidations and flushes, including vpn 0, the largest
// vpn and working sets just above and below capacity. After every
// operation the resident translations must match in recency order with
// their bases (a Translate hit returns the base Fill stored, and Peek
// leaves the order unchanged), and the index must map exactly the
// resident vpns to their slots.
func TestAgainstListLRU(t *testing.T) {
	for _, entries := range []int{1, 2, 3, 16, 64} {
		rng := rand.New(rand.NewSource(int64(entries)))
		tb := New(entries)
		ref := newRefLRU(entries)
		universe := int64(entries + entries/2 + 2)
		lookups, misses := 0, 0
		for i := 0; i < 50000; i++ {
			vpn := uint64(rng.Int63n(universe))
			if vpn == 1 {
				vpn = maxVPN
			}
			op := rng.Intn(100)
			_, resident := ref.peek(vpn)
			if op < 70 { // a translation or a lookup
				lookups++
				if !resident {
					misses++
				}
			}
			switch {
			case op < 60:
				applyOp(t, tb, ref, opTranslate, vpn, uint64(rng.Int63()), i)
			case op < 70:
				if got := tb.Lookup(vpn); got != resident {
					t.Fatalf("entries=%d op %d: Lookup(%d) = %v, want %v", entries, i, vpn, got, resident)
				}
				ref.translate(vpn)
				checkIndex(t, tb, i)
			case op < 85:
				applyOp(t, tb, ref, opPeek, vpn, 0, i)
			case op < 99:
				applyOp(t, tb, ref, opInvalidate, vpn, 0, i)
			default:
				applyOp(t, tb, ref, opFlush, vpn, 0, i)
			}
		}
		if misses == 0 || misses == lookups {
			t.Errorf("entries=%d: %d misses in %d lookups, want some hits and some misses", entries, misses, lookups)
		}
	}
}

// FuzzTLB decodes the input as a capacity byte followed by (op, vpn,
// base) triples and diffs the TLB against the container/list reference
// after every operation.
func FuzzTLB(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 7, 0, 1, 0, 0, 2, 0})
	f.Add([]byte{1, 0, 1, 1, 0, 2, 2, 0, 1, 3, 2, 1, 0, 3, 0, 1, 3, 4, 0, 0, 0, 5, 5})
	seq := []byte{15}
	for i := 0; i < 300; i++ {
		seq = append(seq, byte(i*7%11), byte(i*13%23), byte(i))
	}
	f.Add(seq)
	// vpn 0, which the index keeps outside its table, evicted, peeked,
	// invalidated and refilled.
	f.Add([]byte{1, 0, 0, 1, 0, 5, 2, 2, 0, 0, 0, 6, 3, 2, 0, 0, 0, 0, 4, 3, 0, 0, 0, 0, 5, 0, 5, 0})
	// Reuse after Flush: the same vpns come back into slots whose stale
	// vpns the flush left behind.
	f.Add([]byte{1, 0, 3, 1, 0, 4, 2, 4, 0, 0, 0, 4, 3, 0, 3, 4, 2, 3, 0, 4, 0, 0, 0, 0, 4, 0, 5, 1, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		entries := int(data[0]%64) + 1
		tb, ref := New(entries), newRefLRU(entries)
		for i := 1; i+3 <= len(data); i += 3 {
			op := tlbOp(data[i] % byte(numOps))
			vpn := uint64(data[i+1])
			if vpn == 0xff {
				vpn = maxVPN
			}
			applyOp(t, tb, ref, op, vpn, uint64(data[i+2])<<12, i)
		}
	})
}
