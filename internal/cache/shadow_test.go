package cache

import (
	"container/list"
	"math"
	"math/rand"
	"testing"

	"repro/internal/flat"
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
// Each capacity runs in both forms: NewShadow's wide one, whose
// addresses here sit near the top of the 64-bit space, and a narrow one
// for addresses below 2^39.
func TestShadowAgainstListLRU(t *testing.T) {
	for _, capacity := range []int{1, 3, 64, 512} {
		const line = 128
		for _, narrow := range []bool{false, true} {
			s, base := NewShadow(capacity, line), uint64(math.MaxUint64)&^(1<<32-1)
			if narrow {
				s, base = NewShadowFor(capacity, line, 1<<39-1), 1<<39-1<<32
			}
			if got := s.narrow != nil; got != narrow {
				t.Fatalf("capacity %d: narrow form %v, want %v", capacity, got, narrow)
			}
			diffShadow(t, s, capacity, line, base)
		}
	}
}

// diffShadow diffs s, of capacity lines of line bytes, against the
// reference under random accesses and removals at addresses from base.
func diffShadow(t *testing.T, s *Shadow, capacity, line int, base uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(capacity)))
	ref := newListShadow(capacity, line)
	universe := int64((capacity + capacity/4 + 2) * line)
	for i := 0; i < 50000; i++ {
		addr := base + uint64(rng.Int63n(universe))
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

// TestShadowFormBoundary: a shadow of flat.MaxNarrowLRU (65,534) lines
// whose machine's line numbers fit in 32 bits takes the narrow form,
// and one line more, or one line number more, the wide form; both
// classify exactly at their size.
func TestShadowFormBoundary(t *testing.T) {
	const line = 128
	maxNarrowAddr := uint64(1<<32*line - 1)
	for _, c := range []struct {
		lines   int
		maxAddr uint64
		narrow  bool
	}{
		{flat.MaxNarrowLRU, maxNarrowAddr, true},
		{flat.MaxNarrowLRU + 1, maxNarrowAddr, false},
		{flat.MaxNarrowLRU, maxNarrowAddr + 1, false},
		{1 << 16, 512 << 20, false}, // alpha's LLC at scale 1
	} {
		s := NewShadowFor(c.lines, line, c.maxAddr)
		if got := s.narrow != nil; got != c.narrow || (s.wide != nil) == c.narrow {
			t.Fatalf("%d lines below %#x: narrow form %v, want %v", c.lines, c.maxAddr, got, c.narrow)
		}
		// Fill the shadow, wrap it once, and refetch its oldest and
		// newest lines; the top line number seen is the largest the
		// bound allows.
		top := c.maxAddr &^ (line - 1)
		for i := range uint64(2 * c.lines) {
			if s.Access(top - i*line) {
				t.Fatalf("%d lines: first access of line %d hit", c.lines, i)
			}
		}
		if s.Len() != c.lines {
			t.Fatalf("%d lines: Len %d after filling", c.lines, s.Len())
		}
		if !s.Access(top-uint64(c.lines)*line) || !s.Access(top-uint64(2*c.lines-1)*line) || s.Access(top) {
			t.Fatalf("%d lines: wrong hit on the evicted or resident lines", c.lines)
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
