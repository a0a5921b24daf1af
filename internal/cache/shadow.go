package cache

import (
	"math"
	"math/bits"

	"repro/internal/flat"
)

// Shadow is a fully-associative LRU cache of the same capacity (in lines)
// as a real cache. A replacement miss in the real cache that would have
// hit in the shadow is a conflict miss (caused by limited associativity);
// one that also misses in the shadow is a capacity miss. This is the
// standard classification the paper's "replacement = capacity + conflict"
// breakdown relies on (§4.1). The lines live in a flat LRU keyed by line
// number, so an access allocates nothing.
//
// The LRU takes the narrowest form the geometry allows, picked once at
// construction: a flat.NarrowLRU, 8-B slots and 2-B index entries, when
// the shadow holds at most flat.MaxNarrowLRU lines and every line
// number it can see fits in 32 bits, and a flat.WideLRU, 16-B slots and
// 4-B index entries, otherwise. Exactly one of narrow and wide is set;
// touch is its TouchFunc, so an access costs one call in either form.
type Shadow struct {
	lineShift uint // log2(line size)
	touch     func(uint64) bool
	narrow    *flat.NarrowLRU
	wide      *flat.WideLRU
}

// NewShadow creates a shadow cache holding capacity lines of lineSize
// bytes, for addresses anywhere in the 64-bit space.
func NewShadow(capacity, lineSize int) *Shadow {
	return NewShadowFor(capacity, lineSize, math.MaxUint64)
}

// NewShadowFor creates a shadow cache holding capacity lines of lineSize
// bytes, for addresses at most maxAddr: a machine's physical addresses
// lie below its memory size. An access above maxAddr is a caller error
// the narrow form does not detect.
func NewShadowFor(capacity, lineSize int, maxAddr uint64) *Shadow {
	s := &Shadow{lineShift: uint(bits.TrailingZeros(uint(lineSize)))}
	if capacity <= flat.MaxNarrowLRU && maxAddr>>s.lineShift <= math.MaxUint32 {
		s.narrow = flat.NewLRU[uint32, uint16](capacity)
		s.touch = s.narrow.TouchFunc()
	} else {
		s.wide = flat.NewLRU[uint64, int32](capacity)
		s.touch = s.wide.TouchFunc()
	}
	return s
}

// Access touches addr's line and reports whether it was present.
func (s *Shadow) Access(addr uint64) bool { return s.touch(addr >> s.lineShift) }

// Remove drops addr's line (coherence invalidation must be mirrored here,
// otherwise a later coherence re-fetch would be misclassified).
func (s *Shadow) Remove(addr uint64) {
	if s.narrow != nil {
		s.narrow.Remove(uint32(addr >> s.lineShift))
		return
	}
	s.wide.Remove(addr >> s.lineShift)
}

// Len returns the number of resident lines.
func (s *Shadow) Len() int {
	if s.narrow != nil {
		return s.narrow.Len()
	}
	return s.wide.Len()
}
