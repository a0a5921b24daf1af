package flat

import "math/bits"

// LRU is an exact least-recently-used set of uint64 keys with a fixed
// capacity: a doubly linked recency list threaded by index through one
// slot slice, with an open-addressed index from key to slot. The slot
// slice is allocated once at its capacity and filled by append; slots
// freed by Remove are chained for reuse. Once built, no operation
// allocates.
//
// The index holds slot numbers, not keys: entry p is 0 when empty and
// i+1 when slot i's key hashes to a probe run through p, and a probe
// compares the key in the slot, which the recency move reads anyway. An
// entry costs 4 bytes where a Map's key/value pair costs 16, and no key,
// 0 included, is set aside to mark an empty entry.
type LRU struct {
	index []int32 // slot+1 per entry, 0 when empty; length is a power of two
	mask  uint64  // len(index) - 1
	shift uint    // 64 - log2(len(index)): home keeps the hash's top bits
	slots []lruSlot
	n     int   // resident keys
	head  int32 // MRU slot, -1 when empty
	tail  int32 // LRU slot, -1 when empty
	free  int32 // first removed slot, -1 when none; next chains the rest
}

// lruSlot is one key in the recency list.
type lruSlot struct {
	key        uint64
	prev, next int32 // list neighbours (-1 = none); next chains the free list
}

// NewLRU returns an empty LRU holding at most capacity keys. Its index
// is sized as Map.Reserve sizes a table: the smallest power of two, at
// least 8, that keeps the load at capacity within 3/4.
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		panic("flat: LRU capacity must be positive")
	}
	size := minSlots
	for capacity*4 > size*3 {
		size *= 2
	}
	return &LRU{
		index: make([]int32, size),
		mask:  uint64(size - 1),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		slots: make([]lruSlot, 0, capacity),
		head:  -1, tail: -1, free: -1,
	}
}

// Len returns the number of resident keys.
func (l *LRU) Len() int { return l.n }

// home returns k's preferred index entry, by Map's Fibonacci hash.
func (l *LRU) home(k uint64) uint64 { return (k * 0x9e3779b97f4a7c15) >> l.shift }

// find returns the index entry of k's probe run that holds k, with its
// value (slot+1), or the empty entry that ends the run, with 0.
func (l *LRU) find(k uint64) (uint64, int32) {
	for p := l.home(k); ; p = (p + 1) & l.mask {
		if j := l.index[p]; j == 0 || l.slots[j-1].key == k {
			return p, j
		}
	}
}

// Touch makes k the most recently used key and reports whether it was
// already resident. A new key takes a removed slot, a never-used slot,
// or, when the LRU is full, the least recently used key's slot.
func (l *LRU) Touch(k uint64) bool {
	// MRU fast path: a repeat of the front key needs no reordering and
	// no index probe.
	if l.head >= 0 && l.slots[l.head].key == k {
		return true
	}
	return l.touch(k)
}

func (l *LRU) touch(k uint64) bool {
	p, j := l.find(k)
	if j != 0 {
		i := j - 1
		if l.head != i {
			l.unlink(i)
			l.pushFront(i)
		}
		return true
	}
	var i int32
	switch {
	case l.free >= 0:
		i = l.free
		l.free = l.slots[i].next
	case len(l.slots) < cap(l.slots):
		i = int32(len(l.slots))
		l.slots = append(l.slots, lruSlot{})
	default:
		i = l.tail
		l.unlink(i)
		q, _ := l.find(l.slots[i].key)
		l.erase(q)
		// Erasing may have shifted an empty entry into k's probe run
		// ahead of p.
		p, _ = l.find(k)
		l.n--
	}
	l.slots[i].key = k
	l.pushFront(i)
	l.index[p] = i + 1
	l.n++
	return false
}

// Remove drops k if resident.
func (l *LRU) Remove(k uint64) {
	p, j := l.find(k)
	if j == 0 {
		return
	}
	i := j - 1
	l.erase(p)
	l.unlink(i)
	l.slots[i].next = l.free
	l.free = i
	l.n--
}

// erase empties index entry p. The entries after p in its probe run
// shift back to fill the gap, as in Map.Delete, so every remaining key
// stays reachable from its home entry.
func (l *LRU) erase(p uint64) {
	for q := p; ; {
		q = (q + 1) & l.mask
		j := l.index[q]
		if j == 0 {
			break
		}
		// The entry at q may move to the gap at p only if its home is
		// not cyclically inside (p, q].
		if (q-l.home(l.slots[j-1].key))&l.mask >= (q-p)&l.mask {
			l.index[p] = j
			p = q
		}
	}
	l.index[p] = 0
}

// Clear drops every key, keeping the storage.
func (l *LRU) Clear() {
	clear(l.index)
	l.slots = l.slots[:0]
	l.n, l.head, l.tail, l.free = 0, -1, -1, -1
}

// unlink removes slot i from the recency list.
func (l *LRU) unlink(i int32) {
	s := &l.slots[i]
	if s.prev >= 0 {
		l.slots[s.prev].next = s.next
	} else {
		l.head = s.next
	}
	if s.next >= 0 {
		l.slots[s.next].prev = s.prev
	} else {
		l.tail = s.prev
	}
}

// pushFront makes slot i the MRU entry.
func (l *LRU) pushFront(i int32) {
	s := &l.slots[i]
	s.prev, s.next = -1, l.head
	if l.head >= 0 {
		l.slots[l.head].prev = i
	}
	l.head = i
	if l.tail < 0 {
		l.tail = i
	}
}
