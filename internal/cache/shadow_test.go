package cache

import (
	"container/list"
	"math/rand"
	"testing"
)

// listShadow is the naive exact-LRU reference for Shadow: a
// container/list of line addresses in recency order (front = MRU) with
// a Go map index.
type listShadow struct {
	capacity int
	line     uint64
	order    *list.List
	index    map[uint64]*list.Element
}

func newListShadow(capacity, line int) *listShadow {
	return &listShadow{capacity: capacity, line: uint64(line), order: list.New(), index: map[uint64]*list.Element{}}
}

func (r *listShadow) access(addr uint64) bool {
	la := addr &^ (r.line - 1)
	if e, ok := r.index[la]; ok {
		r.order.MoveToFront(e)
		return true
	}
	if r.order.Len() >= r.capacity {
		lru := r.order.Back()
		delete(r.index, lru.Value.(uint64))
		r.order.Remove(lru)
	}
	r.index[la] = r.order.PushFront(la)
	return false
}

func (r *listShadow) remove(addr uint64) {
	la := addr &^ (r.line - 1)
	if e, ok := r.index[la]; ok {
		delete(r.index, la)
		r.order.Remove(e)
	}
}

// TestShadowAgainstListLRU diffs Shadow against the container/list
// reference under random accesses (at any byte offset within a line,
// line 0 included) and coherence removals, over working sets around
// the capacity so hits, evictions and reuse of removed slots all occur.
func TestShadowAgainstListLRU(t *testing.T) {
	for _, capacity := range []int{1, 3, 64, 512} {
		const line = 128
		rng := rand.New(rand.NewSource(int64(capacity)))
		s := NewShadow(capacity, line)
		ref := newListShadow(capacity, line)
		universe := int64((capacity + capacity/4 + 2) * line)
		for i := 0; i < 50000; i++ {
			addr := uint64(rng.Int63n(universe))
			if rng.Intn(10) == 0 {
				s.Remove(addr)
				ref.remove(addr)
			} else if got, want := s.Access(addr), ref.access(addr); got != want {
				t.Fatalf("capacity %d op %d: Access(%#x) = %v, want %v", capacity, i, addr, got, want)
			}
			if s.Len() != ref.order.Len() {
				t.Fatalf("capacity %d op %d: Len = %d, want %d", capacity, i, s.Len(), ref.order.Len())
			}
		}
	}
}

// TestShadowSteadyStateAllocs: accesses and removals allocate nothing.
func TestShadowSteadyStateAllocs(t *testing.T) {
	s := NewShadow(256, 128)
	i := uint64(0)
	allocs := testing.AllocsPerRun(2000, func() {
		s.Access(i * 3 % 400 * 128) // 400 lines cycle through 256 slots
		if i%5 == 0 {
			s.Remove(i % 400 * 128)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("%v allocs per access, want 0", allocs)
	}
}
