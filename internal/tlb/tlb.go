package tlb

import "repro/internal/flat"

// TLB is a fully-associative, LRU translation buffer keyed by virtual
// page number. Each entry holds the page's physical base, so a hit
// translates without consulting the page table. The entries are records
// of vpn, base and age stamp in one fixed slice sized to the entry
// count, and an index maps every resident vpn to its slot: a hit tests
// the most recently used slot and then makes one index probe, touching
// only the index and the hit's own record; only a miss scans the stamps
// for the victim (an empty slot, else the lowest stamp). The
// replacement order is exact true LRU and no operation allocates.
type TLB struct {
	entries []entry
	index   flat.Map // resident vpn -> slot
	clock   uint64   // stamp of the most recent use
	mru     int      // slot of the most recent use
	last    int      // slot the last miss installed, for Fill
}

// entry is one translation slot.
type entry struct {
	vpn   uint64
	base  uint64 // physical page base
	stamp uint64 // last-use time; 0 marks an empty slot
}

// New creates a TLB with the given number of entries.
func New(entries int) *TLB {
	if entries <= 0 {
		panic("tlb: entries must be positive")
	}
	t := &TLB{entries: make([]entry, entries)}
	t.index.Reserve(entries)
	return t
}

// find returns vpn's slot, -1 when it is not resident.
func (t *TLB) find(vpn uint64) int {
	if e := &t.entries[t.mru]; e.vpn == vpn && e.stamp != 0 {
		return t.mru
	}
	if i, ok := t.index.Get(vpn); ok {
		return int(i)
	}
	return -1
}

// Translate looks vpn up and makes it the most recently used entry. A
// hit returns the physical page base stored for vpn. A miss installs vpn
// in place of the least recently used entry and returns hit false; the
// caller walks the page table and stores the result with Fill.
func (t *TLB) Translate(vpn uint64) (pbase uint64, hit bool) {
	if e := &t.entries[t.mru]; e.vpn == vpn && e.stamp != 0 {
		return e.base, true
	}
	// vpn is not resident in the MRU slot, so an index hit is another
	// slot, which becomes the most recently used.
	if j, ok := t.index.Get(vpn); ok {
		e := &t.entries[j]
		t.clock++
		e.stamp = t.clock
		t.mru = int(j)
		return e.base, true
	}
	i := t.victim()
	e := &t.entries[i]
	if e.stamp != 0 {
		t.index.Delete(e.vpn)
	}
	t.index.Put(vpn, uint64(i))
	t.clock++
	*e = entry{vpn: vpn, stamp: t.clock}
	t.mru, t.last = i, i
	return 0, false
}

// victim returns the slot a miss fills: the first empty slot, else the
// least recently used one.
func (t *TLB) victim() int {
	v := 0
	for i := range t.entries {
		s := t.entries[i].stamp
		if s == 0 {
			return i
		}
		if s < t.entries[v].stamp {
			v = i
		}
	}
	return v
}

// Fill stores the physical page base of the entry the last missing
// Translate installed.
func (t *TLB) Fill(pbase uint64) { t.entries[t.last].base = pbase }

// Lookup touches vpn and reports whether a translation was present;
// on a miss the entry is installed (hardware refill semantics are
// charged by the caller).
func (t *TLB) Lookup(vpn uint64) bool {
	_, hit := t.Translate(vpn)
	return hit
}

// Peek returns vpn's physical page base without refilling or touching
// LRU order; used to decide whether a prefetch is dropped.
func (t *TLB) Peek(vpn uint64) (pbase uint64, ok bool) {
	if i := t.find(vpn); i >= 0 {
		return t.entries[i].base, true
	}
	return 0, false
}

// Invalidate drops the translation for vpn if present (single-page
// shootdown during a recoloring).
func (t *TLB) Invalidate(vpn uint64) {
	if i := t.find(vpn); i >= 0 {
		t.entries[i].stamp = 0
		t.index.Delete(vpn)
	}
}

// Flush empties the TLB (context switch / recoloring).
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i].stamp = 0
	}
	t.index.Clear()
	t.clock, t.mru = 0, 0
}

// Len returns the number of resident translations.
func (t *TLB) Len() int { return t.index.Len() }
