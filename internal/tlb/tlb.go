package tlb

import "repro/internal/flat"

// TLB is a fully-associative, LRU translation buffer keyed by virtual
// page number. Its entries live in a flat.LRU, an index-linked recency
// list with an open-addressed vpn index, so the simulator's
// per-reference lookup path allocates nothing while keeping exact
// true-LRU replacement order.
type TLB struct {
	lru *flat.LRU

	Lookups uint64
	Misses  uint64
}

// New creates a TLB with the given number of entries.
func New(entries int) *TLB {
	if entries <= 0 {
		panic("tlb: entries must be positive")
	}
	return &TLB{lru: flat.NewLRU(entries)}
}

// Lookup touches vpn and reports whether a translation was present;
// on a miss the translation is installed (hardware refill semantics are
// charged by the caller).
func (t *TLB) Lookup(vpn uint64) bool {
	t.Lookups++
	if t.lru.Touch(vpn) {
		return true
	}
	t.Misses++
	return false
}

// Probe reports whether vpn is mapped without refilling or touching LRU
// state; used to decide whether a prefetch is dropped.
func (t *TLB) Probe(vpn uint64) bool { return t.lru.Has(vpn) }

// Invalidate drops the translation for vpn if present (single-page
// shootdown during a recoloring).
func (t *TLB) Invalidate(vpn uint64) { t.lru.Remove(vpn) }

// Flush empties the TLB (context switch / recoloring).
func (t *TLB) Flush() { t.lru.Clear() }

// Len returns the number of resident translations.
func (t *TLB) Len() int { return t.lru.Len() }

// MissRate returns misses/lookups.
func (t *TLB) MissRate() float64 {
	if t.Lookups == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Lookups)
}
