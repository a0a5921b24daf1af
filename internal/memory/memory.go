package memory

import (
	"errors"
	"fmt"
	"sort"
)

// ErrOutOfMemory is returned when no free frame exists in any pool.
var ErrOutOfMemory = errors.New("memory: out of physical frames")

// PartitionExhaustedError reports that a process's isolation domain ran
// out of frames inside its exclusive color subset. A partitioned
// allocator never borrows a foreign-partition frame, so the failure is
// scoped to the domain even when other pools still hold frames. It
// unwraps to ErrOutOfMemory so existing errors.Is checks (and cdpcd's
// 422 mapping) treat it as the out-of-memory family.
type PartitionExhaustedError struct {
	Pid    int   // process whose allocation failed
	Domain int   // its isolation domain
	Colors []int // the exhausted color subset
}

func (e *PartitionExhaustedError) Error() string {
	return fmt.Sprintf("memory: isolation domain %d (pid %d) exhausted its color partition %v",
		e.Domain, e.Pid, e.Colors)
}

// Unwrap makes errors.Is(err, ErrOutOfMemory) hold.
func (e *PartitionExhaustedError) Unwrap() error { return ErrOutOfMemory }

// NormColor is the sanctioned color normalization: it maps any int,
// including negatives, onto [0, n). Every color-indexed path in the
// allocator (and the VM layer's occupancy accounting) must go through
// it so that a negative preferred color means the same pool everywhere.
func NormColor(c, n int) int { return ((c % n) + n) % n }

// Allocator hands out physical frames grouped by page color. Frames are
// owned by the process they were allocated for, so process exit can
// return exactly its frames and an audit can prove no pool counts leak.
type Allocator struct {
	numColors int
	pools     []pool // per color
	totalFree int

	owner  map[uint64]int // allocated frame -> owning process id
	allocs map[int]uint64 // pid -> frames granted
	frees  map[int]uint64 // pid -> frames returned

	// Honored counts allocations that got the preferred color; Fallback
	// counts those that did not (pressure or exhausted pool).
	Honored  uint64
	Fallback uint64

	// Partitioned mode: each isolation domain owns an exclusive,
	// contiguous color subset and allocations for its pids are clamped
	// to that subset. Empty maps mean unpartitioned (the default), in
	// which case every path below behaves exactly as before.
	domainOf    map[int]int   // pid -> isolation domain
	partition   map[int][]int // domain -> exclusive colors, ascending
	colorDomain []int         // color -> owning domain

	// colorOf is the frame→color function. Nil means the modular layout
	// of contiguous physical memory under a conventional physically
	// indexed cache (frame % numColors); a hashed/sliced LLC installs
	// its own function via NewWithColorOf.
	colorOf func(frame uint64) int
}

// New creates an allocator over totalFrames frames spread round-robin
// across numColors colors (frame f has color f % numColors, the natural
// layout of contiguous physical memory under a physically indexed cache).
func New(totalFrames, numColors int) *Allocator {
	return NewWithColorOf(totalFrames, numColors, nil)
}

// pool is one color's free frames, kept implicitly: the frames
// released back to the color, and the color's frames never allocated
// yet, which are the frames of that color from next upward. A pop takes
// the most recently released frame, else next, so frames come back
// ascending until the first release, exactly as from a stack of every
// frame of the color pushed in descending order with released frames
// pushed on top. A pool costs 40 bytes however many frames it holds.
type pool struct {
	released []uint64 // LIFO of released frames
	next     uint64   // lowest never-allocated frame; meaningful while fresh > 0
	fresh    int      // never-allocated frames left
}

// free returns the pool's free-frame count.
func (p *pool) free() int { return len(p.released) + p.fresh }

// top returns the frame the next pop takes. The pool must be non-empty.
func (p *pool) top() uint64 {
	if n := len(p.released); n > 0 {
		return p.released[n-1]
	}
	return p.next
}

// NewWithColorOf is New with an explicit frame→color function, for
// machines whose last-level cache selects sets by an address hash
// (sliced LLCs): the pools are built by colorOf, and ColorOf/Release
// consult it. colorOf must be a pure function returning values in
// [0, numColors); nil keeps the modular default.
//
// The pools cost O(numColors) memory, not O(totalFrames): under the
// modular layout each color's frames are an arithmetic progression,
// and under colorOf one pass here counts each color's frames and finds
// its lowest, after which a pool's next frame is found by scanning
// forward for its color.
func NewWithColorOf(totalFrames, numColors int, colorOf func(frame uint64) int) *Allocator {
	if totalFrames <= 0 || numColors <= 0 {
		panic(fmt.Sprintf("memory: bad sizes frames=%d colors=%d", totalFrames, numColors))
	}
	a := &Allocator{
		numColors: numColors,
		pools:     make([]pool, numColors),
		totalFree: totalFrames,
		owner:     map[uint64]int{},
		allocs:    map[int]uint64{},
		frees:     map[int]uint64{},
		colorOf:   colorOf,
	}
	if colorOf == nil {
		for c := range min(numColors, totalFrames) {
			a.pools[c] = pool{next: uint64(c), fresh: (totalFrames - c + numColors - 1) / numColors}
		}
		return a
	}
	for f := totalFrames - 1; f >= 0; f-- {
		p := &a.pools[colorOf(uint64(f))]
		p.next = uint64(f)
		p.fresh++
	}
	return a
}

// pop takes the top frame of color c's pool, which must be non-empty,
// and moves the pool's next frame up to the color's following one.
func (a *Allocator) pop(c int) uint64 {
	p := &a.pools[c]
	frame := p.top()
	if n := len(p.released); n > 0 {
		p.released = p.released[:n-1]
		return frame
	}
	if p.fresh--; p.fresh > 0 {
		if a.colorOf == nil {
			p.next += uint64(a.numColors)
		} else {
			for p.next++; a.colorOf(p.next) != c; p.next++ {
			}
		}
	}
	return frame
}

// NumColors returns the color count the allocator was built with.
func (a *Allocator) NumColors() int { return a.numColors }

// FreeFrames returns the total number of free frames.
func (a *Allocator) FreeFrames() int { return a.totalFree }

// FreeOfColor returns the number of free frames of color c. Like every
// color-taking entry point it accepts any int and wraps via NormColor.
func (a *Allocator) FreeOfColor(c int) int { return a.pools[NormColor(c, a.numColors)].free() }

// FreeByColor returns the free-frame count of every color pool.
func (a *Allocator) FreeByColor() []int {
	out := make([]int, a.numColors)
	for c := range a.pools {
		out[c] = a.pools[c].free()
	}
	return out
}

// ColorOf returns the color of a frame number.
func (a *Allocator) ColorOf(frame uint64) int {
	if a.colorOf != nil {
		return a.colorOf(frame)
	}
	return int(frame % uint64(a.numColors))
}

// Alloc returns a free frame, preferring the given color. honored reports
// whether the preference was satisfied. The frame is owned by process 0
// (the single-process legacy owner).
func (a *Allocator) Alloc(preferredColor int) (frame uint64, honored bool, err error) {
	return a.AllocFor(0, preferredColor)
}

// AllocFor returns a free frame for the given process, preferring the
// given color. honored reports whether the preference was satisfied.
//
// In partitioned mode a pid with an isolation domain is clamped to the
// domain's exclusive color subset: the preference is folded into the
// subset (so policy preferences and CDPC hints land on a partition
// color instead of the global color space), the pressure fallback scans
// only partition pools, and exhaustion yields a typed
// PartitionExhaustedError — the allocator never borrows a frame from a
// foreign partition.
func (a *Allocator) AllocFor(pid, preferredColor int) (frame uint64, honored bool, err error) {
	if colors, domain, ok := a.domainColors(pid); ok {
		return a.allocWithin(pid, domain, preferredColor, colors)
	}
	if a.totalFree == 0 {
		return 0, false, ErrOutOfMemory
	}
	c := NormColor(preferredColor, a.numColors)
	if a.pools[c].free() > 0 {
		return a.take(pid, c, true), true, nil
	}
	// Pressure fallback: take from the richest pool to keep future
	// preferences satisfiable. The scan keeps the first maximum, so ties
	// break toward the lowest color deterministically.
	best, bestLen := -1, 0
	for i := range a.pools {
		if n := a.pools[i].free(); n > bestLen {
			best, bestLen = i, n
		}
	}
	return a.take(pid, best, false), false, nil
}

// allocWithin is the partition-clamped allocation path: fold the
// preference into the subset, fall back richest-within-partition (first
// maximum, so ties break toward the lowest partition color), and fail
// with a typed error once the subset runs dry.
func (a *Allocator) allocWithin(pid, domain, preferredColor int, colors []int) (frame uint64, honored bool, err error) {
	c := colors[NormColor(preferredColor, len(colors))]
	if a.pools[c].free() > 0 {
		return a.take(pid, c, true), true, nil
	}
	best, bestLen := -1, 0
	for _, pc := range colors {
		if n := a.pools[pc].free(); n > bestLen {
			best, bestLen = pc, n
		}
	}
	if best < 0 {
		return 0, false, &PartitionExhaustedError{Pid: pid, Domain: domain, Colors: colors}
	}
	return a.take(pid, best, false), false, nil
}

// take pops the top frame of color c, books ownership and the honored
// or fallback counter. The caller guarantees the pool is non-empty.
func (a *Allocator) take(pid, c int, honored bool) uint64 {
	frame := a.pop(c)
	a.totalFree--
	if honored {
		a.Honored++
	} else {
		a.Fallback++
	}
	a.owner[frame] = pid
	a.allocs[pid]++
	return frame
}

// Release returns a frame to its color pool and clears its ownership.
func (a *Allocator) Release(frame uint64) {
	if pid, ok := a.owner[frame]; ok {
		delete(a.owner, frame)
		a.frees[pid]++
	}
	p := &a.pools[a.ColorOf(frame)]
	p.released = append(p.released, frame)
	a.totalFree++
}

// OwnedFrames returns the frames currently owned by pid, ascending.
func (a *Allocator) OwnedFrames(pid int) []uint64 {
	var out []uint64
	for f, p := range a.owner {
		if p == pid {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllocCount returns the number of frames ever granted to pid.
func (a *Allocator) AllocCount(pid int) uint64 { return a.allocs[pid] }

// FreeCount returns the number of pid-owned frames returned so far.
func (a *Allocator) FreeCount(pid int) uint64 { return a.frees[pid] }

// ReleaseOwned returns every frame owned by pid to the pools and reports
// how many were released. Frames are pushed in descending order so later
// pops hand them back ascending, keeping reuse deterministic.
func (a *Allocator) ReleaseOwned(pid int) int {
	frames := a.OwnedFrames(pid)
	for i := len(frames) - 1; i >= 0; i-- {
		a.Release(frames[i])
	}
	return len(frames)
}

// FirstTouchColor returns the color of the frame a sequential free-list
// allocator would hand out next: the lowest-numbered free frame across
// all pools. With no free frames it returns 0 (the following allocation
// fails anyway).
func (a *Allocator) FirstTouchColor() int { return a.FirstTouchColorFor(0) }

// FirstTouchColorFor is FirstTouchColor scoped to pid's color partition:
// in partitioned mode it scans only the pools the pid's domain owns, so
// a first-touch policy predicts a color its own allocation can honor.
// For an unpartitioned allocator (or a pid with no domain) it scans all
// pools and matches FirstTouchColor exactly.
func (a *Allocator) FirstTouchColorFor(pid int) int {
	var bestFrame uint64
	found := false
	consider := func(c int) {
		if p := &a.pools[c]; p.free() > 0 {
			if top := p.top(); !found || top < bestFrame {
				bestFrame, found = top, true
			}
		}
	}
	if colors, _, ok := a.domainColors(pid); ok {
		for _, c := range colors {
			consider(c)
		}
	} else {
		for c := range a.pools {
			consider(c)
		}
	}
	if !found {
		return 0
	}
	return a.ColorOf(bestFrame)
}

// OwnerOf reports the process currently owning an allocated frame.
func (a *Allocator) OwnerOf(frame uint64) (pid int, ok bool) {
	pid, ok = a.owner[frame]
	return pid, ok
}

// AssignDomains switches the allocator into partitioned mode. pids maps
// each process id to its isolation domain; processes sharing a domain
// id share a partition. The distinct domains, taken in ascending order,
// receive contiguous color blocks whose sizes differ by at most one
// (lower domains absorb the remainder), so the assignment is a pure
// function of the resolved co-runner mix. It fails when more domains
// than colors are requested, and must be called before any partitioned
// allocation (existing pid-0 allocations, e.g. an ExhaustColors drain,
// are unaffected).
func (a *Allocator) AssignDomains(pids map[int]int) error {
	if len(pids) == 0 {
		return fmt.Errorf("memory: AssignDomains needs at least one pid")
	}
	if a.colorDomain != nil {
		return fmt.Errorf("memory: domains already assigned")
	}
	domainSet := map[int]bool{}
	for _, d := range pids {
		domainSet[d] = true
	}
	domains := make([]int, 0, len(domainSet))
	for d := range domainSet {
		domains = append(domains, d)
	}
	sort.Ints(domains)
	if len(domains) > a.numColors {
		return fmt.Errorf("memory: %d isolation domains exceed %d colors", len(domains), a.numColors)
	}
	a.domainOf = make(map[int]int, len(pids))
	for pid, d := range pids {
		a.domainOf[pid] = d
	}
	a.partition = make(map[int][]int, len(domains))
	a.colorDomain = make([]int, a.numColors)
	per, extra := a.numColors/len(domains), a.numColors%len(domains)
	next := 0
	for i, d := range domains {
		n := per
		if i < extra {
			n++
		}
		colors := make([]int, 0, n)
		for j := 0; j < n; j++ {
			colors = append(colors, next)
			a.colorDomain[next] = d
			next++
		}
		a.partition[d] = colors
	}
	return nil
}

// Partitioned reports whether AssignDomains has split the color space.
func (a *Allocator) Partitioned() bool { return a.colorDomain != nil }

// DomainOf returns pid's isolation domain, or 0 when the allocator is
// unpartitioned or the pid was never assigned one.
func (a *Allocator) DomainOf(pid int) int { return a.domainOf[pid] }

// ColorDomain returns the domain owning a color (0 when unpartitioned).
func (a *Allocator) ColorDomain(color int) int {
	if a.colorDomain == nil {
		return 0
	}
	return a.colorDomain[NormColor(color, a.numColors)]
}

// PartitionOf returns a copy of the exclusive color subset pid's domain
// owns, or nil when the pid is unconstrained.
func (a *Allocator) PartitionOf(pid int) []int {
	colors, _, ok := a.domainColors(pid)
	if !ok {
		return nil
	}
	out := make([]int, len(colors))
	copy(out, colors)
	return out
}

// domainColors resolves the color subset constraining pid's allocations.
// ok is false when the allocator is unpartitioned or the pid has no
// domain (such a pid keeps the legacy global behavior).
func (a *Allocator) domainColors(pid int) (colors []int, domain int, ok bool) {
	if a.domainOf == nil {
		return nil, 0, false
	}
	domain, ok = a.domainOf[pid]
	if !ok {
		return nil, 0, false
	}
	return a.partition[domain], domain, true
}
