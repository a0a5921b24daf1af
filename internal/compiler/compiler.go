package compiler

import (
	"fmt"
	"sort"

	"repro/internal/ir"
)

// LayoutOptions controls the data-layout pass.
type LayoutOptions struct {
	// Align starts every array on a cache-line boundary, eliminating
	// false sharing between data structures (§5.4).
	Align bool
	// Pad inserts small pads between group-accessed arrays so their
	// starting addresses map to different on-chip cache sets (§5.4).
	Pad bool

	// ExternalPad applies the §2.2 padding baseline: pads between arrays
	// sized to stagger their starting locations across the EXTERNAL
	// cache. Padding operates on the virtual address space, so it only
	// reaches the physical cache when the OS preserves virtual layout —
	// under page coloring it works, but "pads that are larger than a
	// page size are ineffective if the operating system has a bin
	// hopping policy" (§2.2). The ext-padding experiment demonstrates
	// exactly that.
	ExternalPad bool
	// ExternalCacheSize is the external-cache span ExternalPad staggers
	// across.
	ExternalCacheSize int

	LineSize        int // external/on-chip cache line for alignment
	OnChipCacheSize int // L1 size used to stagger starting addresses
	PageSize        int
}

// DefaultLayout returns the options SUIF uses: aligned and padded.
func DefaultLayout(lineSize, l1Size, pageSize int) LayoutOptions {
	return LayoutOptions{Align: true, Pad: true, LineSize: lineSize, OnChipCacheSize: l1Size, PageSize: pageSize}
}

// Layout assigns virtual base addresses to the program's arrays and code
// segment. All data structures are dynamically allocated at start-up
// time (§5.4); the virtual data segment starts at dataBase.
//
// With Align off, arrays are packed end-to-end at odd byte offsets, the
// "neither aligned nor padded" configuration of Figure 9.
func Layout(prog *ir.Program, opts LayoutOptions) error {
	if opts.LineSize <= 0 || opts.PageSize <= 0 {
		return fmt.Errorf("compiler: layout needs positive line (%d) and page (%d) sizes", opts.LineSize, opts.PageSize)
	}
	groups := GroupAccesses(prog)
	cur := uint64(opts.PageSize) // leave page 0 unused
	for i, a := range prog.Arrays {
		if opts.Align {
			cur = roundUp(cur, uint64(opts.LineSize))
		} else if i > 0 {
			// Deliberate misalignment: split a cache line with the
			// previous array, the unaligned baseline of Figure 9.
			cur += uint64(opts.LineSize / 2)
		}
		if opts.Pad && opts.OnChipCacheSize > 0 {
			cur = padForOnChip(cur, a, groups, prog, opts)
		}
		if opts.ExternalPad && opts.ExternalCacheSize > 0 {
			// Page-granular external staggering plus a sub-page offset
			// that keeps the §5.4 on-chip stagger intact (page-aligned
			// starts would collide all arrays in the virtually indexed
			// L1 — the padding baseline still aligns and pads on-chip).
			cur = padForExternal(cur, i, opts)
			cur += uint64((i * 3 * opts.LineSize) % opts.PageSize)
		}
		a.Base = cur
		cur += uint64(a.SizeBytes())
	}
	// Code segment on its own pages after the data.
	cur = roundUp(cur, uint64(opts.PageSize))
	prog.CodeBase = cur
	if prog.CodeSize == 0 {
		prog.CodeSize = 64 << 10
	}
	return nil
}

// padForOnChip advances cur so that a's start does not map to the same
// on-chip cache location as any already-placed array it is
// group-accessed with (§5.4: "the starting addresses of data structures
// that are used together never map to the same location in the on-chip
// cache").
func padForOnChip(cur uint64, a *ir.Array, groups []GroupAccess, prog *ir.Program, opts LayoutOptions) uint64 {
	span := uint64(opts.OnChipCacheSize)
	line := uint64(opts.LineSize)
	conflictsWith := func(pos uint64) bool {
		for _, g := range groups {
			var other *ir.Array
			switch a.Name {
			case g.A:
				other = prog.ArrayByName(g.B)
			case g.B:
				other = prog.ArrayByName(g.A)
			default:
				continue
			}
			if other == nil || other == a || other.Base == 0 {
				continue // unknown or not placed yet
			}
			if pos%span == other.Base%span {
				return true
			}
		}
		return false
	}
	for i := 0; i < int(span/line) && conflictsWith(cur); i++ {
		cur += line
	}
	return cur
}

// padForExternal advances cur so that the i-th array starts at an
// evenly spread page slot within the external-cache span — the §2.2
// padding baseline. The pads are whole pages, which is exactly why the
// technique dies under bin hopping: fault-order coloring erases any
// virtual-address relationship coarser than a page.
func padForExternal(cur uint64, i int, opts LayoutOptions) uint64 {
	span := uint64(opts.ExternalCacheSize)
	page := uint64(opts.PageSize)
	slots := span / page
	if slots == 0 {
		return cur
	}
	want := (uint64(i) * 5 % slots) * page
	cur = roundUp(cur, page)
	if rem := cur % span; rem != want {
		if want > rem {
			cur += want - rem
		} else {
			cur += span - rem + want
		}
	}
	return cur
}

func roundUp(x, to uint64) uint64 { return (x + to - 1) / to * to }

// PartitionSummary is the §5.1 array-partitioning record: "the starting
// address of the array, its total size, the size of the data partition
// unit and the data partitioning policy".
type PartitionSummary struct {
	Array *ir.Array
	Sched ir.Schedule

	Iterations int // outer trips distributed over the processors
	UnitElems  int // elements per outer iteration (the partition unit)
	SpanElems  int // elements actually covered per outer iteration
}

// Region returns the byte range of the array accessed by cpu under this
// partition on p processors, before communication widening.
func (ps PartitionSummary) Region(p, cpu int) (lo, hi uint64) {
	ilo, ihi := ps.Sched.Span(ps.Iterations, p, cpu)
	if ilo >= ihi {
		return 0, 0
	}
	es := uint64(ps.Array.ElemSize)
	loE := ilo * ps.UnitElems
	hiE := (ihi-1)*ps.UnitElems + ps.SpanElems
	if hiE > ps.Array.Elems {
		hiE = ps.Array.Elems
	}
	return ps.Array.Base + uint64(loE)*es, ps.Array.Base + uint64(hiE)*es
}

// CommPattern records boundary communication on an array: a shift of
// OffsetElems elements between neighboring processors (§5.1 supports
// shift and rotate).
type CommPattern struct {
	Array       *ir.Array
	OffsetElems int // signed; |offset| elements cross the boundary
	Rotate      bool
}

// GroupAccess records a pair of arrays accessed within the same loops.
type GroupAccess struct {
	A, B string // array names, A < B
}

// Summary is everything the compiler passes to the CDPC runtime.
type Summary struct {
	Partitions []PartitionSummary
	Comms      []CommPattern
	Groups     []GroupAccess
}

// Grouped reports whether arrays a and b are group-accessed.
func (s *Summary) Grouped(a, b string) bool {
	if b < a {
		a, b = b, a
	}
	for _, g := range s.Groups {
		if g.A == a && g.B == b {
			return true
		}
	}
	return false
}

// CommReach returns how far, in elements, a processor's accesses reach
// below (loReach) and above (hiReach) its own partition of the array,
// derived from the signed shift offsets: a[i-1] reaches one element down,
// a[i+1] one element up.
func (s *Summary) CommReach(array *ir.Array) (loReach, hiReach int) {
	for _, c := range s.Comms {
		if c.Array != array {
			continue
		}
		if c.OffsetElems < 0 {
			if o := -c.OffsetElems; o > loReach {
				loReach = o
			}
		} else if c.OffsetElems > hiReach {
			hiReach = c.OffsetElems
		}
	}
	return loReach, hiReach
}

// Rotates reports whether the array has rotate (wrap-around)
// communication: the boundary reach wraps past the array ends, linking
// the first and last processors (§5.1).
func (s *Summary) Rotates(array *ir.Array) bool {
	for _, c := range s.Comms {
		if c.Array == array && c.Rotate {
			return true
		}
	}
	return false
}

// Summarize extracts the §5.1 access-pattern summary from the program.
// Arrays marked Unanalyzable yield no partition summaries — CDPC will
// skip them, reproducing su2cor's partial-coverage behaviour (§6.1).
func Summarize(prog *ir.Program) *Summary {
	s := &Summary{}
	type partKey struct {
		array string
		sched ir.Schedule
		iters int
		unit  int
		span  int
	}
	type commKey struct {
		array  string
		offset int
		rotate bool
	}
	seenPart := map[partKey]bool{}
	seenComm := map[commKey]bool{}
	seenGroup := map[GroupAccess]bool{}

	for _, ph := range prog.Phases {
		for _, n := range ph.Nests {
			recordGroups(n, seenGroup, s)
			if !n.Parallel || n.Suppressed {
				continue // only statically scheduled parallel nests are predictable
			}
			for _, ac := range n.Accesses {
				if ac.Array.Unanalyzable {
					continue
				}
				if ac.OuterStride <= 0 {
					continue // not distributed over this array
				}
				span := (n.InnerIters-1)*ac.InnerStride + 1
				if span > ac.OuterStride {
					span = ac.OuterStride // overlapping inner spans: treat as dense
				}
				pk := partKey{ac.Array.Name, n.Sched, n.Iterations, ac.OuterStride, span}
				if !seenPart[pk] {
					seenPart[pk] = true
					s.Partitions = append(s.Partitions, PartitionSummary{
						Array:      ac.Array,
						Sched:      n.Sched,
						Iterations: n.Iterations,
						UnitElems:  ac.OuterStride,
						SpanElems:  span,
					})
				}
				if ac.Offset != 0 {
					ck := commKey{ac.Array.Name, ac.Offset, ac.Wrap}
					if !seenComm[ck] {
						seenComm[ck] = true
						s.Comms = append(s.Comms, CommPattern{Array: ac.Array, OffsetElems: ac.Offset, Rotate: ac.Wrap})
					}
				}
			}
		}
	}
	sort.Slice(s.Groups, func(i, j int) bool {
		if s.Groups[i].A != s.Groups[j].A {
			return s.Groups[i].A < s.Groups[j].A
		}
		return s.Groups[i].B < s.Groups[j].B
	})
	return s
}

// GroupAccesses returns the group-access pairs of the whole program
// without building a full summary; the layout pass uses it for padding.
func GroupAccesses(prog *ir.Program) []GroupAccess {
	s := &Summary{}
	seen := map[GroupAccess]bool{}
	phases := prog.Phases
	if prog.Init != nil {
		phases = append([]*ir.Phase{prog.Init}, phases...)
	}
	for _, ph := range phases {
		for _, n := range ph.Nests {
			recordGroups(n, seen, s)
		}
	}
	return s.Groups
}

func recordGroups(n *ir.Nest, seen map[GroupAccess]bool, s *Summary) {
	for i := 0; i < len(n.Accesses); i++ {
		for j := i + 1; j < len(n.Accesses); j++ {
			a, b := n.Accesses[i].Array.Name, n.Accesses[j].Array.Name
			if a == b {
				continue
			}
			if b < a {
				a, b = b, a
			}
			g := GroupAccess{A: a, B: b}
			if !seen[g] {
				seen[g] = true
				s.Groups = append(s.Groups, g)
			}
		}
	}
}

// PrefetchOptions tunes the prefetch-insertion pass.
type PrefetchOptions struct {
	// LatencyCycles is the miss latency the software pipeline must hide;
	// the per-nest prefetch distance is derived from it and the nest's
	// estimated cycles per inner iteration.
	LatencyCycles int
	// TiledDistance is the (insufficient) lead achieved in tiled nests,
	// where tiling inhibits the software pipeline (applu, §6.2).
	TiledDistance int
}

// DefaultPrefetch matches the paper's setting: hide a ~500 ns (200-cycle)
// memory latency.
func DefaultPrefetch() PrefetchOptions { return PrefetchOptions{LatencyCycles: 220, TiledDistance: 0} }

// nestDistance estimates the inner-iteration lead needed to hide the
// latency: latency divided by the loop body's cycle estimate, capped so
// the prologue does not dominate short loops.
func nestDistance(n *ir.Nest, opts PrefetchOptions) int {
	if n.Tiled {
		return opts.TiledDistance
	}
	bodyCycles := len(n.Accesses) + n.WorkPerIter
	if bodyCycles < 1 {
		bodyCycles = 1
	}
	d := opts.LatencyCycles/bodyCycles + 1
	if max := n.InnerIters / 2; d > max {
		d = max
	}
	if d < 1 {
		d = 1
	}
	return d
}

// InsertPrefetches marks, in place, the accesses the locality analysis
// predicts will miss: streaming references (non-zero inner stride) whose
// reuse distance exceeds the on-chip cache. References with zero inner
// stride are register- or L1-resident and are not prefetched, "inserting
// prefetches only for those references that are likely to suffer misses"
// (§6.2). Returns the number of marked accesses.
func InsertPrefetches(prog *ir.Program, opts PrefetchOptions) int {
	marked := 0
	for _, ph := range prog.Phases {
		for _, n := range ph.Nests {
			d := nestDistance(n, opts)
			for i := range n.Accesses {
				ac := &n.Accesses[i]
				if ac.InnerStride == 0 {
					continue
				}
				ac.Prefetch = true
				ac.PrefetchDistance = d
				marked++
			}
		}
	}
	return marked
}

// ClearPrefetches removes all prefetch marks (for A/B experiment runs).
func ClearPrefetches(prog *ir.Program) {
	for _, ph := range prog.Phases {
		for _, n := range ph.Nests {
			for i := range n.Accesses {
				n.Accesses[i].Prefetch = false
				n.Accesses[i].PrefetchDistance = 0
			}
		}
	}
}
