package cache

import "repro/internal/flat"

// Shadow is a fully-associative LRU cache of the same capacity (in lines)
// as a real cache. A replacement miss in the real cache that would have
// hit in the shadow is a conflict miss (caused by limited associativity);
// one that also misses in the shadow is a capacity miss. This is the
// standard classification the paper's "replacement = capacity + conflict"
// breakdown relies on (§4.1). The lines live in a flat.LRU, so an access
// allocates nothing.
type Shadow struct {
	lineMask uint64 // lineSize - 1
	lines    *flat.LRU
}

// NewShadow creates a shadow cache holding capacity lines of lineSize
// bytes.
func NewShadow(capacity, lineSize int) *Shadow {
	return &Shadow{lineMask: uint64(lineSize - 1), lines: flat.NewLRU(capacity)}
}

// Access touches addr's line and reports whether it was present.
func (s *Shadow) Access(addr uint64) bool { return s.lines.Touch(addr &^ s.lineMask) }

// Remove drops addr's line (coherence invalidation must be mirrored here,
// otherwise a later coherence re-fetch would be misclassified).
func (s *Shadow) Remove(addr uint64) { s.lines.Remove(addr &^ s.lineMask) }

// Len returns the number of resident lines.
func (s *Shadow) Len() int { return s.lines.Len() }
