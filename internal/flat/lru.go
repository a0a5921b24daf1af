package flat

// LRU is an exact least-recently-used set of uint64 keys with a fixed
// capacity: a doubly linked recency list threaded by index through one
// slot slice, with a Map from key to slot. The slot slice is allocated
// once at its capacity and filled by append; slots freed by Remove are
// chained for reuse. Once built, no operation allocates.
type LRU struct {
	index Map // key -> slot
	slots []lruSlot
	head  int32 // MRU slot, -1 when empty
	tail  int32 // LRU slot, -1 when empty
	free  int32 // first removed slot, -1 when none; next chains the rest
}

// lruSlot is one key in the recency list.
type lruSlot struct {
	key        uint64
	prev, next int32 // list neighbours (-1 = none); next chains the free list
}

// NewLRU returns an empty LRU holding at most capacity keys.
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		panic("flat: LRU capacity must be positive")
	}
	l := &LRU{slots: make([]lruSlot, 0, capacity), head: -1, tail: -1, free: -1}
	l.index.Reserve(capacity)
	return l
}

// Len returns the number of resident keys.
func (l *LRU) Len() int { return l.index.Len() }

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
	if j, ok := l.index.Get(k); ok {
		i := int32(j)
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
		l.index.Delete(l.slots[i].key)
		l.unlink(i)
	}
	l.slots[i].key = k
	l.pushFront(i)
	l.index.Put(k, uint64(i))
	return false
}

// Remove drops k if resident.
func (l *LRU) Remove(k uint64) {
	j, ok := l.index.Get(k)
	if !ok {
		return
	}
	i := int32(j)
	l.index.Delete(k)
	l.unlink(i)
	l.slots[i].next = l.free
	l.free = i
}

// Clear drops every key, keeping the storage.
func (l *LRU) Clear() {
	l.index.Clear()
	l.slots = l.slots[:0]
	l.head, l.tail, l.free = -1, -1, -1
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
