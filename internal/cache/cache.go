package cache

import (
	"repro/internal/arch"
)

// A way is one line slot packed in a word: the line's tag (its line
// number above the set index bits) shifted left by two, then the dirty
// bit and the valid bit. The zero word is an empty way. Ways within a
// set are ordered most-recently-used first, so eviction always takes
// the last element.
//
// The tag drops the address's line-offset and set-index bits, which the
// set itself implies, so it fits in 62 bits whenever a way spans at
// least 4 bytes of address (line size × set count), as
// arch.CacheGeometry.Validate requires.
const (
	wayValid = 1
	wayDirty = 2
)

// Cache is a set-associative, write-back, write-allocate cache with true
// LRU replacement. It is indexed by whatever address is passed in —
// virtual for on-chip caches, physical for the external cache — which is
// exactly the distinction that makes page colors matter (§2.1).
type Cache struct {
	Geom arch.CacheGeometry
	// ways holds every set back to back: set si is
	// ways[si*assoc : (si+1)*assoc]. The associativity need not be a
	// power of two, so the set base is a multiply.
	ways  []uint64
	assoc int

	// Precomputed indexing: arch.Validate guarantees power-of-two line
	// size and set count, so the per-access address→(line, set) split is
	// a shift and a mask, never a 64-bit division.
	lineShift uint
	tagShift  uint   // lineShift + log2(set count)
	setMask   uint64 // set index mask after the line shift

	// prof, when enabled, records per-set miss/eviction/invalidation
	// counts for the observability layer; nil by default so the hot path
	// pays only an untaken branch on misses.
	prof *SetProfile
}

// SetProfile holds per-set event counters, indexed by set number.
type SetProfile struct {
	Misses        []uint64 // allocations into the set (demand misses)
	Evictions     []uint64 // valid lines displaced from the set
	Invalidations []uint64 // lines removed by coherence actions
}

// New creates an empty cache with the given geometry, which must pass
// arch.CacheGeometry.Validate.
func New(g arch.CacheGeometry) *Cache {
	return &Cache{
		Geom:      g,
		ways:      make([]uint64, g.Sets()*g.Assoc),
		assoc:     g.Assoc,
		lineShift: g.LineShift(),
		tagShift:  g.LineShift() + arch.Log2(g.Sets()),
		setMask:   uint64(g.Sets() - 1),
	}
}

// key and setOf split an address, without a division, into the valid
// way word its line would occupy (dirty bit clear) and its set.
func (c *Cache) key(addr uint64) uint64   { return addr>>c.tagShift<<2 | wayValid }
func (c *Cache) setOf(addr uint64) uint64 { return (addr >> c.lineShift) & c.setMask }

// lineAddrOf returns the line address held by way w of set si.
func (c *Cache) lineAddrOf(w, si uint64) uint64 {
	return (w>>2<<(c.tagShift-c.lineShift) | si) << c.lineShift
}

// set returns set si's ways, most recently used first.
func (c *Cache) set(si uint64) []uint64 {
	base := int(si) * c.assoc
	return c.ways[base : base+c.assoc : base+c.assoc]
}

// find returns the index of key's way in set, -1 when absent.
func find(set []uint64, key uint64) int {
	for i := range set {
		if set[i]&^wayDirty == key {
			return i
		}
	}
	return -1
}

// Result reports the outcome of an Access.
type Result struct {
	Hit         bool
	Evicted     bool   // a valid line was displaced
	VictimAddr  uint64 // line address of the displaced line
	VictimDirty bool   // displaced line requires a writeback
}

// Access looks up addr, allocating on miss, and returns the outcome.
// write marks the (resulting) line dirty.
func (c *Cache) Access(addr uint64, write bool) Result {
	key := c.key(addr)
	si := c.setOf(addr)
	var dirty uint64
	if write {
		dirty = wayDirty
	}
	if w := &c.ways[int(si)*c.assoc]; *w&^wayDirty == key {
		// MRU hit: the common case, and LRU order stays as it is.
		*w |= dirty
		return Result{Hit: true}
	}
	set := c.set(si)
	for i := 1; i < len(set); i++ {
		if set[i]&^wayDirty == key {
			w := set[i] | dirty
			copy(set[1:i+1], set[:i]) // move to MRU
			set[0] = w
			return Result{Hit: true}
		}
	}
	// Miss: evict LRU way.
	last := len(set) - 1
	res := Result{}
	if v := set[last]; v != 0 {
		res.Evicted = true
		res.VictimAddr = c.lineAddrOf(v, si)
		res.VictimDirty = v&wayDirty != 0
	}
	copy(set[1:], set[:last])
	set[0] = key | dirty
	if c.prof != nil {
		c.prof.Misses[si]++
		if res.Evicted {
			c.prof.Evictions[si]++
		}
	}
	return res
}

// Probe reports whether addr is present without disturbing LRU state.
func (c *Cache) Probe(addr uint64) bool {
	return find(c.set(c.setOf(addr)), c.key(addr)) >= 0
}

// Invalidate removes addr's line if present, returning (present, dirty).
// Used by the coherence protocol when another CPU writes the line.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	si := c.setOf(addr)
	set := c.set(si)
	i := find(set, c.key(addr))
	if i < 0 {
		return false, false
	}
	dirty = set[i]&wayDirty != 0
	c.remove(si, set, i)
	return true, dirty
}

// InvalidateRange removes every line overlapping [addr, addr+size) and
// reports whether any of them was dirty. A range running past the top
// of the address space ends there. Consecutive lines fall in
// consecutive sets, so the walk steps the line number instead of
// re-deriving it from each address.
func (c *Cache) InvalidateRange(addr, size uint64) (dirty bool) {
	if size == 0 {
		return false
	}
	end := addr + size - 1
	if end < addr {
		end = ^uint64(0)
	}
	line := addr >> c.lineShift
	for n := end>>c.lineShift - line + 1; n > 0; n-- {
		si := line & c.setMask
		set := c.set(si)
		if i := find(set, c.key(line<<c.lineShift)); i >= 0 {
			dirty = dirty || set[i]&wayDirty != 0
			c.remove(si, set, i)
		}
		line++
	}
	return dirty
}

// remove drops way i of set si, compacting the set in LRU order.
func (c *Cache) remove(si uint64, set []uint64, i int) {
	copy(set[i:], set[i+1:])
	set[len(set)-1] = 0
	if c.prof != nil {
		c.prof.Invalidations[si]++
	}
}

// Clean clears the dirty bit of addr's line if present (after a writeback
// or a downgrade to shared state).
func (c *Cache) Clean(addr uint64) {
	set := c.set(c.setOf(addr))
	if i := find(set, c.key(addr)); i >= 0 {
		set[i] &^= wayDirty
	}
}

// MarkDirty sets the dirty bit of addr's line if present without
// touching LRU state; used when an on-chip dirty victim is written back
// into the (inclusive) external cache.
func (c *Cache) MarkDirty(addr uint64) {
	set := c.set(c.setOf(addr))
	if i := find(set, c.key(addr)); i >= 0 {
		set[i] |= wayDirty
	}
}

// Flush empties the cache (program start).
func (c *Cache) Flush() { clear(c.ways) }

// sets returns the number of sets.
func (c *Cache) sets() int { return len(c.ways) / c.assoc }

// EnableSetProfile starts per-set event counting (observability layer).
func (c *Cache) EnableSetProfile() {
	n := c.sets()
	c.prof = &SetProfile{
		Misses:        make([]uint64, n),
		Evictions:     make([]uint64, n),
		Invalidations: make([]uint64, n),
	}
}

// Profile returns the per-set counters, nil unless EnableSetProfile was
// called.
func (c *Cache) Profile() *SetProfile { return c.prof }

// SetOccupancy returns the fraction of valid ways in each set.
func (c *Cache) SetOccupancy() []float64 {
	occ := make([]float64, c.sets())
	for si := range occ {
		valid := 0
		for _, w := range c.set(uint64(si)) {
			if w != 0 {
				valid++
			}
		}
		occ[si] = float64(valid) / float64(c.assoc)
	}
	return occ
}

// Utilization returns the fraction of sets holding at least one valid
// line; the paper's Figure 3 argument is that sparse access patterns
// leave external-cache regions unused.
func (c *Cache) Utilization() float64 {
	n := c.sets()
	used := 0
	for si := 0; si < n; si++ {
		for _, w := range c.set(uint64(si)) {
			if w != 0 {
				used++
				break
			}
		}
	}
	return float64(used) / float64(n)
}
