package ir

import "repro/internal/trace"

// iCacheLine is the granularity at which the instruction stream is
// emitted for nests with a significant instruction footprint.
const iCacheLine = 32

// prefetchLine is the external-cache line size the compiler schedules
// prefetches for: one prefetch per line, not per element (the compiler
// knows the target machine's line size; §6.2's algorithm prefetches only
// references likely to miss, and unrolls so each line is prefetched once).
const prefetchLine = 128

// NestStream returns cpu's reference stream for nest n executed on p
// processors. Sequential and suppressed nests run entirely on CPU 0; the
// other CPUs get an empty stream and the simulator charges their idle
// time as sequential or suppressed overhead (§4.1).
//
// Per inner iteration the stream emits, in order: software prefetches
// (for accesses the compiler marked, at their pipelined lead distance),
// instruction fetches (if the nest has an InstFootprint), and the demand
// accesses. The nest's WorkPerIter non-memory instructions ride on the
// first reference of each inner iteration.
func NestStream(prog *Program, n *Nest, p, cpu int) trace.Stream {
	lo, hi := nestSpan(n, p, cpu)
	if lo >= hi {
		return trace.Empty
	}
	return newNestCursor(prog, n, lo, hi, 1)
}

// nestSpan returns cpu's outer-iteration range.
func nestSpan(n *Nest, p, cpu int) (lo, hi int) {
	if !n.Parallel || n.Suppressed || p == 1 {
		if cpu == 0 {
			return 0, n.Iterations
		}
		return 0, 0
	}
	return n.Sched.Span(n.Iterations, p, cpu)
}

// NestSpan returns cpu's outer-iteration range for nest n on p
// processors: [0, Iterations) on CPU 0 and empty elsewhere for
// sequential and suppressed nests, the schedule's span otherwise. The
// sampling planner uses it to place representative windows inside each
// CPU's own span, so a window touches the same columns (and therefore
// the same page colors) the full run would.
func NestSpan(n *Nest, p, cpu int) (lo, hi int) {
	return nestSpan(n, p, cpu)
}

// NestWindowStream is NestStream restricted to the outer-iteration
// window [lo, hi), clamped to cpu's span. The cursor starts cold (inner
// iteration 0, instruction cursor at the code base), exactly as a full
// stream does at its own first iteration; phase-sampled simulation runs
// a functional warm-up window immediately before the measured window to
// reconstruct the cache and TLB state those skipped iterations would
// have left behind.
func NestWindowStream(prog *Program, n *Nest, p, cpu, lo, hi int) trace.Stream {
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
	return newNestCursor(prog, n, lo, hi, 1)
}

// NestWarmStream is NestWindowStream decimated to cache-line
// granularity: inner iterations advance by the largest step that still
// touches every line of every access at least once per lineBytes
// (jump = lineBytes / max |inner stride in bytes|, at least 1).
// Functional warm-up consumes this stream instead of the full one —
// caches, TLBs and the directory hold line- and page-granular state,
// so one reference per line reconstructs exactly the state a
// per-element sweep would, at a fraction of the interpreter cost.
// Instruction fetches are scaled up by the same jump so the cyclic
// code sweep covers the same bytes per emitted iteration as the full
// stream does across the skipped ones.
func NestWarmStream(prog *Program, n *Nest, p, cpu, lo, hi, lineBytes int) trace.Stream {
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
	return newNestCursor(prog, n, lo, hi, max(jump, 1))
}

// NestRefs returns the total references cpu will emit for the nest;
// used for quick workload sizing in tests and the harness.
func NestRefs(prog *Program, n *Nest, p, cpu int) int {
	s := NestStream(prog, n, p, cpu)
	return trace.Count(s)
}

// accPlan is one Access flattened for the cursor: everything its
// address and prefetch filter read, copied out of the Access and its
// Array when the stream is created, with no pointer to chase per
// reference.
type accPlan struct {
	base                 uint64
	elemSize, elems      int
	outer, inner, offset int // element = outer·i + inner·j + offset
	distance             int // prefetch lead in inner iterations
	strideBytes          int // |inner·elemSize|, for the one-per-line prefetch filter
	kind                 trace.Kind
	size                 uint8
	wrap, prefetch       bool
}

// element returns the element index touched at (i, j).
func (a *accPlan) element(i, j int) int { return a.outer*i + a.inner*j + a.offset }

// addr returns the address of element e, wrapping or clamping it into
// the array as Access.VAddr does. In-range elements, the common case,
// take one unsigned compare.
func (a *accPlan) addr(e int) uint64 {
	if uint(e) >= uint(a.elems) {
		if a.wrap {
			e %= a.elems
			if e < 0 {
				e += a.elems
			}
		} else if e < 0 {
			e = 0
		} else {
			e = a.elems - 1
		}
	}
	return a.base + uint64(e*a.elemSize)
}

// Cursor stages within one inner iteration, in emission order.
const (
	stagePrefetch = iota
	stageInst
	stageDemand
)

// nestCursor is the lazy interpreter state for one (nest, cpu). It is
// the stream itself: Next is called directly, with no adapter.
type nestCursor struct {
	acc         []accPlan
	anyPrefetch bool

	i, hi int // outer iteration cursor and bound
	j     int // inner iteration
	inner int // inner iterations per outer one
	jump  int // inner-iteration step (>1 for warm decimation)
	stage int
	k     int // access index within the prefetch or demand stage

	codeBase  uint64
	codeSize  int
	instBytes int    // code bytes fetched per emitted inner iteration; 0 skips the stage
	instOff   int    // cyclic cursor into the code segment
	instLeft  int    // bytes of code still to fetch this iteration
	work      uint32 // WorkPerIter, carried by the iteration's first demand access
	workLeft  uint32 // work not yet emitted this iteration
}

// newNestCursor returns the stream of nest n over outer iterations
// [lo, hi), lo < hi, stepping inner iterations by jump.
func newNestCursor(prog *Program, n *Nest, lo, hi, jump int) *nestCursor {
	c := &nestCursor{
		acc:      make([]accPlan, len(n.Accesses)),
		i:        lo,
		hi:       hi,
		inner:    n.InnerIters,
		jump:     jump,
		codeBase: prog.CodeBase,
		codeSize: prog.CodeSize,
		work:     uint32(n.WorkPerIter),
	}
	for k := range n.Accesses {
		ac := &n.Accesses[k]
		kind := trace.Read
		if ac.Kind == Store {
			kind = trace.Write
		}
		stride := ac.InnerStride * ac.Array.ElemSize
		if stride < 0 {
			stride = -stride
		}
		c.acc[k] = accPlan{
			base:        ac.Array.Base,
			elemSize:    ac.Array.ElemSize,
			elems:       ac.Array.Elems,
			outer:       ac.OuterStride,
			inner:       ac.InnerStride,
			offset:      ac.Offset,
			distance:    ac.PrefetchDistance,
			strideBytes: stride,
			kind:        kind,
			size:        uint8(ac.Array.ElemSize),
			wrap:        ac.Wrap,
			prefetch:    ac.Prefetch,
		}
		c.anyPrefetch = c.anyPrefetch || ac.Prefetch
	}
	if prog.CodeSize > 0 {
		c.instBytes = n.InstFootprint * jump
	}
	if len(c.acc) == 0 && c.instBytes <= 0 {
		c.i = hi // nothing to emit; Validate rejects such a body anyway
	}
	c.begin()
	return c
}

// begin starts an inner iteration at its first non-empty stage.
func (c *nestCursor) begin() {
	c.k = 0
	c.workLeft = c.work
	c.instLeft = c.instBytes
	switch {
	case c.anyPrefetch:
		c.stage = stagePrefetch
	case c.instLeft > 0:
		c.stage = stageInst
	default:
		c.stage = stageDemand
	}
}

// Next implements trace.Stream. Per inner iteration it emits software
// prefetches, then instruction fetches, then demand accesses; see
// NestStream.
func (c *nestCursor) Next(r *trace.Ref) bool {
	for c.i < c.hi {
		switch c.stage {
		case stageDemand:
			if c.k < len(c.acc) {
				a := &c.acc[c.k]
				c.k++
				*r = trace.Ref{Kind: a.kind, VAddr: a.addr(a.element(c.i, c.j)), Size: a.size, Work: c.workLeft}
				c.workLeft = 0
				return true
			}
			// Inner iteration done.
			if c.j += c.jump; c.j >= c.inner {
				c.j = 0
				c.i++
			}
			c.begin()
		case stagePrefetch:
			for c.k < len(c.acc) {
				a := &c.acc[c.k]
				c.k++
				if !a.prefetch {
					continue
				}
				jf := c.j + a.distance
				if jf >= c.inner {
					continue // pipeline drain: no prefetch issued
				}
				// One prefetch per cache line: emit only when the target
				// is the first element of its line for this stream.
				e := a.element(c.i, jf)
				if a.strideBytes < prefetchLine && (e*a.elemSize)%prefetchLine >= a.strideBytes {
					continue
				}
				*r = trace.Ref{Kind: trace.Prefetch, VAddr: a.addr(e), Size: a.size}
				return true
			}
			c.stage, c.k = stageInst, 0
		case stageInst:
			if c.instLeft > 0 {
				*r = trace.Ref{Kind: trace.Inst, VAddr: c.codeBase + uint64(c.instOff), Size: 4, Work: iCacheLine / 4}
				c.instOff = (c.instOff + iCacheLine) % c.codeSize
				c.instLeft -= iCacheLine
				return true
			}
			c.stage = stageDemand
		}
	}
	return false
}

// TouchedPages returns the set of virtual page numbers cpu touches while
// executing the program's steady state on p processors. This drives the
// Figure 3 / Figure 5 access-pattern plots without running the timing
// simulator.
func TouchedPages(prog *Program, p, cpu, pageSize int) map[uint64]bool {
	pages := make(map[uint64]bool)
	var r trace.Ref
	for _, ph := range prog.Phases {
		for _, n := range ph.Nests {
			s := NestStream(prog, n, p, cpu)
			for s.Next(&r) {
				if r.Kind == trace.Read || r.Kind == trace.Write {
					pages[r.VAddr/uint64(pageSize)] = true
				}
			}
		}
	}
	return pages
}
