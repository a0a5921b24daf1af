package flat

import (
	"math"
	"math/bits"
)

// LRU is an exact least-recently-used set of keys with a fixed
// capacity: a doubly linked recency list threaded by index through one
// slot slice, with an open-addressed index from key to slot. The slot
// slice is allocated once at its capacity and filled by append; slots
// freed by Remove are chained for reuse. Once built, no operation
// allocates.
//
// The index holds slot numbers, not keys: entry p is 0 when empty and
// i+1 when slot i's key hashes to a probe run through p, and a probe
// compares the key in the slot, which the recency move reads anyway. No
// key, 0 included, is set aside to mark an empty entry.
//
// K is the key type and L the type of slot numbers, in the index and in
// the list links. Two forms are provided: WideLRU, with uint64 keys and
// int32 links, 16-B slots and 4-B index entries, and NarrowLRU, with
// uint32 keys and uint16 links, 8-B slots and 2-B index entries, for at
// most MaxNarrowLRU keys.
type LRU[K lruKey, L lruLink] struct {
	touch func(uint64) bool // Touch's body, bound by toucher
	index []L               // slot+1 per entry, 0 when empty; length is a power of two
	mask  uint64            // len(index) - 1
	shift uint              // 64 - log2(len(index)): home keeps the hash's top bits
	slots []lruSlot[K, L]
	n     int // resident keys
	head  L   // MRU slot, none when empty
	tail  L   // LRU slot, none when empty
	free  L   // first removed slot, none when none; next chains the rest
}

// WideLRU holds any uint64 keys, up to math.MaxInt32 of them.
type WideLRU = LRU[uint64, int32]

// NarrowLRU holds uint32 keys, up to MaxNarrowLRU of them.
type NarrowLRU = LRU[uint32, uint16]

// MaxNarrowLRU is the largest capacity of a NarrowLRU: every slot number
// plus one, an index entry, then differs from the all-ones link that
// marks no slot.
const MaxNarrowLRU = math.MaxUint16 - 1

// lruKey is the key type of an LRU.
type lruKey interface{ ~uint32 | ~uint64 }

// lruLink is the slot-number type of an LRU.
type lruLink interface{ ~uint16 | ~int32 }

// none is the link that marks no slot: all ones, -1 for int32.
func none[L lruLink]() L { return ^L(0) }

// lruSlot is one key in the recency list.
type lruSlot[K lruKey, L lruLink] struct {
	key        K
	prev, next L // list neighbours (none = no neighbour); next chains the free list
}

// NewLRU returns an empty LRU holding at most capacity keys. Its index
// is sized as Map.Reserve sizes a table: the smallest power of two, at
// least 8, that keeps the load at capacity within 3/4. It panics when
// capacity is not positive or exceeds the form's limit.
func NewLRU[K lruKey, L lruLink](capacity int) *LRU[K, L] {
	limit := math.MaxInt32
	if ^L(0) > 0 {
		limit = MaxNarrowLRU
	}
	if capacity <= 0 || capacity > limit {
		panic("flat: LRU capacity must be positive and within its form's limit")
	}
	size := minSlots
	for capacity*4 > size*3 {
		size *= 2
	}
	l := &LRU[K, L]{
		index: make([]L, size),
		mask:  uint64(size - 1),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		slots: make([]lruSlot[K, L], 0, capacity),
		head:  none[L](), tail: none[L](), free: none[L](),
	}
	l.touch = l.toucher()
	return l
}

// Len returns the number of resident keys.
func (l *LRU[K, L]) Len() int { return l.n }

// home returns k's preferred index entry, by Map's Fibonacci hash.
func (l *LRU[K, L]) home(k K) uint64 { return (uint64(k) * 0x9e3779b97f4a7c15) >> l.shift }

// find returns the index entry of k's probe run that holds k, with its
// value (slot+1), or the empty entry that ends the run, with 0.
func (l *LRU[K, L]) find(k K) (uint64, L) {
	for p := l.home(k); ; p = (p + 1) & l.mask {
		if j := l.index[p]; j == 0 || l.slots[j-1].key == k {
			return p, j
		}
	}
}

// Touch makes k the most recently used key and reports whether it was
// already resident. A new key takes a removed slot, a never-used slot,
// or, when the LRU is full, the least recently used key's slot.
func (l *LRU[K, L]) Touch(k K) bool { return l.touch(uint64(k)) }

// TouchFunc returns Touch as a function of a uint64 key, which it
// truncates to K. A caller that holds an LRU of either form behind one
// function value touches it in one call, as a call of Touch costs.
func (l *LRU[K, L]) TouchFunc() func(uint64) bool { return l.touch }

// toucher returns Touch's body bound to l as a closure, so that Touch
// and TouchFunc's callers make one call per touch, the helpers it uses
// inlined into it. It must not inline: a closure inlined into NewLRU is
// compiled outside the LRU's generic code, and there its helpers (find,
// unlink, pushFront, erase) stay calls.
//
//go:noinline
func (l *LRU[K, L]) toucher() func(uint64) bool {
	return func(key uint64) bool {
		k := K(key)
		// MRU fast path: a repeat of the front key needs no reordering
		// and no index probe. The head is none, out of range, when the
		// LRU is empty.
		if h := uint(l.head); h < uint(len(l.slots)) && l.slots[h].key == k {
			return true
		}
		p, j := l.find(k)
		if j != 0 {
			i := j - 1
			l.unlink(i)
			l.pushFront(i)
			return true
		}
		var i L
		switch {
		case l.free != none[L]():
			i = l.free
			l.free = l.slots[i].next
		case len(l.slots) < cap(l.slots):
			i = L(len(l.slots))
			l.slots = append(l.slots, lruSlot[K, L]{})
		default:
			i = l.tail
			l.unlink(i)
			q, _ := l.find(l.slots[i].key)
			l.erase(q)
			// Erasing may have shifted an empty entry into k's probe
			// run ahead of p.
			p, _ = l.find(k)
			l.n--
		}
		l.slots[i].key = k
		l.pushFront(i)
		l.index[p] = i + 1
		l.n++
		return false
	}
}

// Remove drops k if resident.
func (l *LRU[K, L]) Remove(k K) {
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
func (l *LRU[K, L]) erase(p uint64) {
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
func (l *LRU[K, L]) Clear() {
	clear(l.index)
	l.slots = l.slots[:0]
	l.n, l.head, l.tail, l.free = 0, none[L](), none[L](), none[L]()
}

// unlink removes slot i from the recency list.
func (l *LRU[K, L]) unlink(i L) {
	s := &l.slots[i]
	if s.prev != none[L]() {
		l.slots[s.prev].next = s.next
	} else {
		l.head = s.next
	}
	if s.next != none[L]() {
		l.slots[s.next].prev = s.prev
	} else {
		l.tail = s.prev
	}
}

// pushFront makes slot i the MRU entry.
func (l *LRU[K, L]) pushFront(i L) {
	s := &l.slots[i]
	s.prev, s.next = none[L](), l.head
	if l.head != none[L]() {
		l.slots[l.head].prev = i
	}
	l.head = i
	if l.tail == none[L]() {
		l.tail = i
	}
}
