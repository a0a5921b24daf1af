package memory

import (
	"errors"
	"fmt"
)

// ErrOutOfMemory is returned when no free frame exists in any pool.
var ErrOutOfMemory = errors.New("memory: out of physical frames")

// PartitionExhaustedError reports that a process's isolation domain ran
// out of frames inside its exclusive color subset. An allocation from a
// subset never borrows a frame of another color, so the failure is
// scoped to the domain even when other pools still hold frames; the
// process's address space, which knows its pid and domain, builds it.
// It unwraps to ErrOutOfMemory so existing errors.Is checks (and
// cdpcd's 422 mapping) treat it as the out-of-memory family.
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

// Allocator hands out physical frames grouped by page color. It knows
// colors, not processes: which frames a process holds is its address
// space's record, and which colors it may take is the subset it passes
// to Alloc.
type Allocator struct {
	numColors int
	pools     []pool // per color
	totalFree int

	// Honored counts allocations that got the preferred color; Fallback
	// counts those that did not (pressure or exhausted pool).
	Honored  uint64
	Fallback uint64

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

// Alloc returns a free frame from the given colors, preferring one.
// colors is the caller's color subset, ascending; nil means every
// color. The preference is folded into the subset (so policy
// preferences and CDPC hints land on a subset color instead of the
// global color space), and when its pool is empty the frame comes from
// the richest pool of the subset, the first maximum, so ties break
// toward the lowest color. honored reports whether the preference was
// satisfied. Once every pool of the subset is empty Alloc fails with
// ErrOutOfMemory: it never takes a frame from outside the subset.
func (a *Allocator) Alloc(preferredColor int, colors []int) (frame uint64, honored bool, err error) {
	n := a.subsetLen(colors)
	if c := subsetColor(colors, NormColor(preferredColor, n)); a.pools[c].free() > 0 {
		return a.take(c, true), true, nil
	}
	best, bestLen := -1, 0
	for i := range n {
		c := subsetColor(colors, i)
		if free := a.pools[c].free(); free > bestLen {
			best, bestLen = c, free
		}
	}
	if best < 0 {
		return 0, false, ErrOutOfMemory
	}
	return a.take(best, false), false, nil
}

// subsetLen returns the size of a color subset, nil meaning every
// color.
func (a *Allocator) subsetLen(colors []int) int {
	if colors == nil {
		return a.numColors
	}
	return len(colors)
}

// subsetColor returns the i'th color of a color subset, nil meaning
// every color.
func subsetColor(colors []int, i int) int {
	if colors == nil {
		return i
	}
	return colors[i]
}

// take pops the top frame of color c and books the honored or fallback
// counter. The caller guarantees the pool is non-empty.
func (a *Allocator) take(c int, honored bool) uint64 {
	frame := a.pop(c)
	a.totalFree--
	if honored {
		a.Honored++
	} else {
		a.Fallback++
	}
	return frame
}

// Release returns a frame to its color pool.
func (a *Allocator) Release(frame uint64) {
	p := &a.pools[a.ColorOf(frame)]
	p.released = append(p.released, frame)
	a.totalFree++
}

// FirstTouchColor returns the color of the frame a sequential free-list
// allocator restricted to the given colors (nil meaning every color)
// would hand out next: the lowest-numbered free frame across their
// pools, so a first-touch policy predicts a color its own allocation can
// honor. With no free frames it returns 0 (the following allocation
// fails anyway).
func (a *Allocator) FirstTouchColor(colors []int) int {
	n := a.subsetLen(colors)
	var bestFrame uint64
	found := false
	for i := range n {
		if p := &a.pools[subsetColor(colors, i)]; p.free() > 0 {
			if top := p.top(); !found || top < bestFrame {
				bestFrame, found = top, true
			}
		}
	}
	if !found {
		return 0
	}
	return a.ColorOf(bestFrame)
}

// Partition carves numColors colors into the exclusive color subsets
// of `domains` isolation domains: contiguous ascending blocks, in
// domain order, whose sizes differ by at most one (lower domains
// absorb the remainder), so the assignment is a pure function of the
// domain count. It fails when there are no domains or more domains than
// colors.
func Partition(numColors, domains int) ([][]int, error) {
	if domains < 1 {
		return nil, fmt.Errorf("memory: a partition needs at least one isolation domain")
	}
	if domains > numColors {
		return nil, fmt.Errorf("memory: %d isolation domains exceed %d colors", domains, numColors)
	}
	blocks := make([][]int, domains)
	per, extra := numColors/domains, numColors%domains
	next := 0
	for d := range blocks {
		n := per
		if d < extra {
			n++
		}
		for range n {
			blocks[d] = append(blocks[d], next)
			next++
		}
	}
	return blocks, nil
}
