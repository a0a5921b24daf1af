package flat

import "math/bits"

// Map is an open-addressed uint64→uint64 hash table with linear probing.
// The zero value is an empty map ready to use. Not safe for concurrent
// use.
//
// Key 0 marks an empty slot, so the entry for key 0 lives beside the
// table rather than in it.
type Map struct {
	slots   []slot // length is zero or a power of two
	mask    uint64 // len(slots) - 1
	shift   uint   // 64 - log2(len(slots)): hash keeps the top bits
	n       int    // live entries in slots
	hasZero bool   // whether key 0 is present
	zeroVal uint64 // key 0's value
}

type slot struct{ key, val uint64 }

// minSlots is the table size of the first allocation.
const minSlots = 8

// home returns k's preferred slot: Fibonacci hashing, whose top bits
// spread the strided keys the simulator uses (line addresses, page
// numbers) evenly.
func (m *Map) home(k uint64) uint64 { return (k * 0x9e3779b97f4a7c15) >> m.shift }

// Len returns the number of entries.
func (m *Map) Len() int {
	if m.hasZero {
		return m.n + 1
	}
	return m.n
}

// Reserve sizes the table so that it holds n entries without growing.
func (m *Map) Reserve(n int) {
	size := minSlots
	for n*4 > size*3 {
		size *= 2
	}
	if size > len(m.slots) {
		m.resize(size)
	}
}

// Get returns k's value and whether k is present.
func (m *Map) Get(k uint64) (uint64, bool) {
	if k == 0 {
		return m.zeroVal, m.hasZero
	}
	if m.n == 0 {
		return 0, false
	}
	for i := m.home(k); ; i = (i + 1) & m.mask {
		s := &m.slots[i]
		if s.key == k {
			return s.val, true
		}
		if s.key == 0 {
			return 0, false
		}
	}
}

// Has reports whether k is present.
func (m *Map) Has(k uint64) bool {
	_, ok := m.Get(k)
	return ok
}

// Put sets k's value, inserting k if absent.
func (m *Map) Put(k, v uint64) {
	if k == 0 {
		m.hasZero, m.zeroVal = true, v
		return
	}
	if (m.n+1)*4 > len(m.slots)*3 {
		m.resize(max(2*len(m.slots), minSlots))
	}
	for i := m.home(k); ; i = (i + 1) & m.mask {
		s := &m.slots[i]
		if s.key == k {
			s.val = v
			return
		}
		if s.key == 0 {
			*s = slot{k, v}
			m.n++
			return
		}
	}
}

// Delete removes k and reports whether it was present. The entries
// after k's slot in its probe run shift back to fill the gap, so every
// remaining key stays reachable from its home slot.
func (m *Map) Delete(k uint64) bool {
	if k == 0 {
		ok := m.hasZero
		m.hasZero, m.zeroVal = false, 0
		return ok
	}
	if m.n == 0 {
		return false
	}
	i := m.home(k)
	for ; m.slots[i].key != k; i = (i + 1) & m.mask {
		if m.slots[i].key == 0 {
			return false
		}
	}
	for j := i; ; {
		j = (j + 1) & m.mask
		jk := m.slots[j].key
		if jk == 0 {
			break
		}
		// The entry at j may move to the gap at i only if its home
		// slot is not cyclically inside (i, j].
		if (j-m.home(jk))&m.mask >= (j-i)&m.mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = slot{}
	m.n--
	return true
}

// Clear removes every entry, keeping the table's storage.
func (m *Map) Clear() {
	clear(m.slots)
	m.n, m.hasZero, m.zeroVal = 0, false, 0
}

// resize rehashes every entry into a table of size slots (a power of
// two).
func (m *Map) resize(size int) {
	old := m.slots
	m.slots = make([]slot, size)
	m.mask = uint64(size - 1)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := m.home(s.key)
		for m.slots[i].key != 0 {
			i = (i + 1) & m.mask
		}
		m.slots[i] = s
	}
}
