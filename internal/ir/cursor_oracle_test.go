package ir

import "repro/internal/trace"

// The streams below are the nest interpreter as it was before its
// cursor was flattened into a pointer-free plan. They are kept as the
// oracle the flattened cursor is diffed against; do not optimize them.

// oldNestStream is the oracle for NestStream.
func oldNestStream(prog *Program, n *Nest, p, cpu int) trace.Stream {
	lo, hi := nestSpan(n, p, cpu)
	if lo >= hi {
		return trace.Empty
	}
	cur := &oldCursor{prog: prog, nest: n, i: lo, hi: hi}
	return trace.FuncStream(cur.next)
}

// oldNestWindowStream is the oracle for NestWindowStream.
func oldNestWindowStream(prog *Program, n *Nest, p, cpu, lo, hi int) trace.Stream {
	slo, shi := nestSpan(n, p, cpu)
	if lo < slo {
		lo = slo
	}
	if hi > shi {
		hi = shi
	}
	if lo >= hi {
		return trace.Empty
	}
	cur := &oldCursor{prog: prog, nest: n, i: lo, hi: hi}
	return trace.FuncStream(cur.next)
}

// oldNestWarmStream is the oracle for NestWarmStream.
func oldNestWarmStream(prog *Program, n *Nest, p, cpu, lo, hi, lineBytes int) trace.Stream {
	slo, shi := nestSpan(n, p, cpu)
	if lo < slo {
		lo = slo
	}
	if hi > shi {
		hi = shi
	}
	if lo >= hi {
		return trace.Empty
	}
	maxStride := 0
	for i := range n.Accesses {
		b := n.Accesses[i].InnerStride * n.Accesses[i].Array.ElemSize
		if b < 0 {
			b = -b
		}
		if b > maxStride {
			maxStride = b
		}
	}
	jump := 1
	switch {
	case maxStride == 0:
		// Scalar accesses only: every inner iteration touches the same
		// elements, so one iteration warms them all.
		jump = n.InnerIters
	case lineBytes > maxStride:
		jump = lineBytes / maxStride
	}
	if jump < 1 {
		jump = 1
	}
	cur := &oldCursor{prog: prog, nest: n, i: lo, hi: hi, jump: jump}
	return trace.FuncStream(cur.next)
}

// oldCursor is the oracle's interpreter state for one (nest, cpu).
type oldCursor struct {
	prog *Program
	nest *Nest

	i, hi int // outer iteration cursor and bound
	j     int // inner iteration
	jump  int // inner-iteration step (0 → 1; >1 for warm decimation)
	stage int // 0 = prefetches, 1 = inst fetches, 2 = demand accesses
	k     int // index within stage

	instOff   int // cyclic cursor into the code segment
	instLeft  int // bytes of code still to fetch this iteration
	firstWork bool
}

func (c *oldCursor) next(r *trace.Ref) bool {
	n := c.nest
	for c.i < c.hi {
		switch c.stage {
		case 0: // software prefetches
			for c.k < len(n.Accesses) {
				ac := n.Accesses[c.k]
				c.k++
				if !ac.Prefetch {
					continue
				}
				jf := c.j + ac.PrefetchDistance
				if jf >= n.InnerIters {
					continue // pipeline drain: no prefetch issued
				}
				// One prefetch per cache line: emit only when the target
				// is the first element of its line for this stream.
				strideBytes := ac.InnerStride * ac.Array.ElemSize
				if strideBytes < 0 {
					strideBytes = -strideBytes
				}
				if strideBytes < prefetchLine {
					off := (ac.Element(c.i, jf) * ac.Array.ElemSize) % prefetchLine
					if off >= strideBytes {
						continue
					}
				}
				*r = trace.Ref{Kind: trace.Prefetch, VAddr: ac.VAddr(c.i, jf), Size: uint8(ac.Array.ElemSize)}
				return true
			}
			c.stage, c.k = 1, 0
			c.instLeft = n.InstFootprint
			if c.jump > 1 {
				c.instLeft *= c.jump
			}
			c.firstWork = true
		case 1: // instruction fetches
			if c.instLeft > 0 && c.prog.CodeSize > 0 {
				*r = trace.Ref{Kind: trace.Inst, VAddr: c.prog.CodeBase + uint64(c.instOff), Size: 4, Work: iCacheLine / 4}
				c.instOff = (c.instOff + iCacheLine) % c.prog.CodeSize
				c.instLeft -= iCacheLine
				return true
			}
			c.stage, c.k = 2, 0
		case 2: // demand accesses
			if c.k < len(n.Accesses) {
				ac := n.Accesses[c.k]
				c.k++
				kind := trace.Read
				if ac.Kind == Store {
					kind = trace.Write
				}
				var work uint32
				if c.firstWork {
					work = uint32(n.WorkPerIter)
					c.firstWork = false
				}
				*r = trace.Ref{Kind: kind, VAddr: ac.VAddr(c.i, c.j), Size: uint8(ac.Array.ElemSize), Work: work}
				return true
			}
			// Inner iteration done.
			c.stage, c.k = 0, 0
			if c.jump > 1 {
				c.j += c.jump
			} else {
				c.j++
			}
			if c.j >= n.InnerIters {
				c.j = 0
				c.i++
			}
			// A body with no accesses and no code would spin forever;
			// Validate rejects it, but guard anyway.
			if len(n.Accesses) == 0 && n.InstFootprint == 0 {
				c.i = c.hi
			}
		}
	}
	return false
}
