package memory

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refAllocator is the allocator as it was while every free frame sat in
// an explicit per-color stack: all frames of a color pushed in
// descending order at construction, released frames pushed on top, and
// every allocation a pop. It stays as the oracle the implicit pools are
// diffed against; do not optimize it. It also keeps, as the allocator
// once did, each frame's owning pid and each pid's isolation domain, so
// the fuzz can play the processes that now hold this state in their
// address spaces: a pid's color subset and the frames it holds.
type refAllocator struct {
	numColors int
	free      [][]uint64 // per color, LIFO of frame numbers
	totalFree int
	colorOf   func(frame uint64) int

	owner map[uint64]int // allocated frame -> owning process id

	honored, fallback uint64

	domainOf  map[int]int   // pid -> isolation domain
	partition map[int][]int // domain -> exclusive colors, ascending
}

func newRefAllocator(totalFrames, numColors int, colorOf func(frame uint64) int) *refAllocator {
	if colorOf == nil {
		colorOf = func(f uint64) int { return int(f % uint64(numColors)) }
	}
	r := &refAllocator{
		numColors: numColors,
		free:      make([][]uint64, numColors),
		totalFree: totalFrames,
		colorOf:   colorOf,
		owner:     map[uint64]int{},
	}
	for f := totalFrames - 1; f >= 0; f-- {
		c := colorOf(uint64(f))
		r.free[c] = append(r.free[c], uint64(f))
	}
	return r
}

// colorsOf returns the color subset pid allocates from: its domain's
// partition, or nil (every color) when it has no domain.
func (r *refAllocator) colorsOf(pid int) []int {
	if d, ok := r.domainOf[pid]; ok {
		return r.partition[d]
	}
	return nil
}

func (r *refAllocator) allocFor(pid, preferredColor int) (uint64, bool, error) {
	if colors := r.colorsOf(pid); colors != nil {
		c := colors[NormColor(preferredColor, len(colors))]
		if len(r.free[c]) > 0 {
			return r.take(pid, c, true), true, nil
		}
		best, bestLen := -1, 0
		for _, pc := range colors {
			if n := len(r.free[pc]); n > bestLen {
				best, bestLen = pc, n
			}
		}
		if best < 0 {
			return 0, false, ErrOutOfMemory
		}
		return r.take(pid, best, false), false, nil
	}
	if r.totalFree == 0 {
		return 0, false, ErrOutOfMemory
	}
	c := NormColor(preferredColor, r.numColors)
	if len(r.free[c]) > 0 {
		return r.take(pid, c, true), true, nil
	}
	best, bestLen := -1, 0
	for i, pool := range r.free {
		if len(pool) > bestLen {
			best, bestLen = i, len(pool)
		}
	}
	return r.take(pid, best, false), false, nil
}

func (r *refAllocator) take(pid, c int, honored bool) uint64 {
	pool := r.free[c]
	frame := pool[len(pool)-1]
	r.free[c] = pool[:len(pool)-1]
	r.totalFree--
	if honored {
		r.honored++
	} else {
		r.fallback++
	}
	r.owner[frame] = pid
	return frame
}

func (r *refAllocator) freeOfColor(c int) int { return len(r.free[NormColor(c, r.numColors)]) }

func (r *refAllocator) release(frame uint64) {
	delete(r.owner, frame)
	c := r.colorOf(frame)
	r.free[c] = append(r.free[c], frame)
	r.totalFree++
}

func (r *refAllocator) owned(pid int) []uint64 {
	var out []uint64
	for f, p := range r.owner {
		if p == pid {
			out = append(out, f)
		}
	}
	slices.Sort(out)
	return out
}

func (r *refAllocator) releaseOwned(pid int) int {
	frames := r.owned(pid)
	for i := len(frames) - 1; i >= 0; i-- {
		r.release(frames[i])
	}
	return len(frames)
}

// firstTouchColorFor scans the tops of the pools pid may allocate from.
func (r *refAllocator) firstTouchColorFor(pid int) int {
	pools := r.free
	if colors := r.colorsOf(pid); colors != nil {
		pools = nil
		for _, c := range colors {
			pools = append(pools, r.free[c])
		}
	}
	var bestFrame uint64
	found := false
	for _, pool := range pools {
		if len(pool) == 0 {
			continue
		}
		if top := pool[len(pool)-1]; !found || top < bestFrame {
			bestFrame, found = top, true
		}
	}
	if !found {
		return 0
	}
	return r.colorOf(bestFrame)
}

// assignDomains gives each pid its domain and the distinct domains,
// ascending, contiguous color blocks whose sizes differ by at most one
// (lower domains absorb the remainder). It returns the domains in
// block order.
func (r *refAllocator) assignDomains(pids map[int]int) ([]int, error) {
	var domains []int
	for _, d := range pids {
		if !slices.Contains(domains, d) {
			domains = append(domains, d)
		}
	}
	sort.Ints(domains)
	if len(domains) > r.numColors {
		return domains, fmt.Errorf("memory: %d isolation domains exceed %d colors", len(domains), r.numColors)
	}
	r.domainOf = map[int]int{}
	for pid, d := range pids {
		r.domainOf[pid] = d
	}
	r.partition = map[int][]int{}
	next := 0
	for i, d := range domains {
		n := r.numColors / len(domains)
		if i < r.numColors%len(domains) {
			n++
		}
		for range n {
			r.partition[d] = append(r.partition[d], next)
			next++
		}
	}
	return domains, nil
}

// fuzzLayouts are the frame→color functions FuzzAllocator draws from:
// nil (modular), and two hashes that scatter a color's frames unevenly
// as a sliced LLC's set hash does.
var fuzzLayouts = []func(colors int) func(uint64) int{
	func(int) func(uint64) int { return nil },
	func(colors int) func(uint64) int {
		return func(f uint64) int { return int((f * 0x9E3779B97F4A7C15 >> 40) % uint64(colors)) }
	},
	func(colors int) func(uint64) int {
		return func(f uint64) int { return int((f ^ f>>2 ^ uint64(bits.OnesCount64(f))) % uint64(colors)) }
	},
}

// FuzzAllocator decodes the input as a frame-count byte (1 to 256
// frames), a color-count byte (1 to 16 colors) and a layout byte,
// followed by (op, pid, arg) triples, and diffs the allocator against
// the explicit-stack reference. The pids are the reference's; the
// allocator sees only each pid's color subset. The operations are an
// Alloc from a pid's subset (pid 0's, as sim's single process does, or
// any pid's), a Release of a frame a pid holds (or any frame), the
// release of everything a pid holds, highest frame first (process
// exit), domains assigned to the pids (Partition's blocks diffed
// against the reference's), and a drain of one color from pid 0's
// subset (as sim's ExhaustColors does). Each call's frame, honored flag
// and error are compared, then, after every operation, every color's
// free count, FreeByColor, FreeFrames, the honored and fallback
// counters and FirstTouchColor of every pid's subset.
func FuzzAllocator(f *testing.F) {
	f.Add([]byte{})
	// Modular layout, 64 frames over 8 colors: fill one color past
	// exhaustion, release half back and allocate again.
	seq := []byte{63, 7, 0}
	for i := 0; i < 12; i++ {
		seq = append(seq, 0, 0, 3)
	}
	for i := 0; i < 6; i++ {
		seq = append(seq, 8, 0, byte(i*2))
	}
	for i := 0; i < 12; i++ {
		seq = append(seq, byte(i%7), 0, byte(i%3+2))
	}
	f.Add(seq)
	// Fewer frames than colors: empty pools from the start.
	f.Add([]byte{4, 15, 0, 0, 0, 9, 0, 1, 12, 7, 2, 14, 0, 0, 0, 0, 0, 7, 0, 200, 11, 0, 0, 0, 0, 5})
	// Each hashed layout: two domains partition 6 colors, each
	// allocates past its subset, releases and reallocates.
	for _, layout := range []byte{1, 2} {
		seq = []byte{199, 5, layout, 12, 0, 0x12}
		for i := 0; i < 150; i++ {
			seq = append(seq, byte(i*5%12), byte(i%4), byte(i*7))
		}
		seq = append(seq, 11, 1, 0, 11, 2, 0)
		for i := 0; i < 60; i++ {
			seq = append(seq, byte(i*3%8), byte(i%4), byte(i*11))
		}
		f.Add(seq)
	}
	// Drains of two colors, a foreign frame released twice, the whole
	// memory allocated and released by its owners.
	seq = []byte{95, 11, 2, 13, 0, 4, 13, 0, 250, 9, 0, 77, 9, 0, 77}
	for i := 0; i < 110; i++ {
		seq = append(seq, byte(i%8), byte(i%3), byte(i*13))
	}
	seq = append(seq, 11, 0, 0, 11, 1, 0, 11, 2, 0)
	for i := 0; i < 40; i++ {
		seq = append(seq, 7, 0, byte(i))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		frames, colors := int(data[0])+1, int(data[1]%16)+1
		colorOf := fuzzLayouts[int(data[2])%len(fuzzLayouts)](colors)
		a, ref := NewWithColorOf(frames, colors, colorOf), newRefAllocator(frames, colors, colorOf)
		for i := 3; i+3 <= len(data); i += 3 {
			pid, arg := int(data[i+1]%4), data[i+2]
			color := int(int8(arg))
			var call string
			switch op := data[i] % 16; {
			case op < 8:
				if op == 7 {
					pid = 0
				}
				call = fmt.Sprintf("Alloc(%d, %v) for pid %d", color, ref.colorsOf(pid), pid)
				gf, gh, gerr := a.Alloc(color, ref.colorsOf(pid))
				wf, wh, werr := ref.allocFor(pid, color)
				diffAlloc(t, i, call, gf, gh, gerr, wf, wh, werr)
			case op < 11:
				// A frame some pid owns, or, when arg's top bit is set, any
				// frame: releasing a free frame duplicates it in both.
				frame := uint64(arg) % uint64(frames)
				if held := ref.owned(pid); arg < 128 && len(held) > 0 {
					frame = held[int(arg)%len(held)]
				}
				call = fmt.Sprintf("Release(%d)", frame)
				a.Release(frame)
				ref.release(frame)
			case op < 12:
				call = fmt.Sprintf("release all of pid %d", pid)
				held := ref.owned(pid)
				for j := len(held) - 1; j >= 0; j-- {
					a.Release(held[j])
				}
				ref.releaseOwned(pid)
			case op < 13:
				// Pids 0-3 (pid 0 only when arg's bit 7 is set) get the
				// domains in arg's 2-bit fields, once.
				if ref.domainOf != nil {
					continue
				}
				pids := map[int]int{}
				for p := 1; p < 4; p++ {
					pids[p] = int(arg >> (2 * (p - 1)) & 3)
				}
				if arg&0x80 != 0 {
					pids[0] = int(arg >> 6 & 1)
				}
				call = fmt.Sprintf("assign domains %v", pids)
				domains, werr := ref.assignDomains(pids)
				blocks, gerr := Partition(colors, len(domains))
				if !reflect.DeepEqual(gerr, werr) {
					t.Fatalf("op %d: %s: Partition(%d, %d) err = %v, want %v", i, call, colors, len(domains), gerr, werr)
				}
				for b, d := range domains {
					if werr == nil && !slices.Equal(blocks[b], ref.partition[d]) {
						t.Fatalf("op %d: %s: Partition(%d, %d) = %v, want domain %d to get %v", i, call, colors, len(domains), blocks, d, ref.partition[d])
					}
				}
			default:
				// As many allocations as the color has free frames: they
				// drain it unless pid 0's partition folds the color away.
				call = fmt.Sprintf("drain color %d", color)
				for n := ref.freeOfColor(color); n > 0; n-- {
					gf, gh, gerr := a.Alloc(color, ref.colorsOf(0))
					wf, wh, werr := ref.allocFor(0, color)
					diffAlloc(t, i, call, gf, gh, gerr, wf, wh, werr)
				}
			}
			diffPools(t, i, call, a, ref)
		}
	})
}

func diffAlloc(t *testing.T, i int, call string, gf uint64, gh bool, gerr error, wf uint64, wh bool, werr error) {
	t.Helper()
	if gf != wf || gh != wh || !reflect.DeepEqual(gerr, werr) {
		t.Fatalf("op %d: %s = (%d, %v, %v), want (%d, %v, %v)", i, call, gf, gh, gerr, wf, wh, werr)
	}
}

// diffPools compares every query the allocator answers about its pools.
func diffPools(t *testing.T, i int, call string, a *Allocator, ref *refAllocator) {
	t.Helper()
	want := make([]int, ref.numColors)
	for c, pool := range ref.free {
		want[c] = len(pool)
	}
	if got := a.FreeByColor(); !slices.Equal(got, want) {
		t.Fatalf("after op %d %s: FreeByColor = %v, want %v", i, call, got, want)
	}
	for c := -ref.numColors; c < 2*ref.numColors; c++ {
		if got, w := a.FreeOfColor(c), ref.freeOfColor(c); got != w {
			t.Fatalf("after op %d %s: FreeOfColor(%d) = %d, want %d", i, call, c, got, w)
		}
	}
	if a.FreeFrames() != ref.totalFree || a.Honored != ref.honored || a.Fallback != ref.fallback {
		t.Fatalf("after op %d %s: free %d honored %d fallback %d, want %d %d %d", i, call,
			a.FreeFrames(), a.Honored, a.Fallback, ref.totalFree, ref.honored, ref.fallback)
	}
	for pid := 0; pid < 5; pid++ {
		if got, w := a.FirstTouchColor(ref.colorsOf(pid)), ref.firstTouchColorFor(pid); got != w {
			t.Fatalf("after op %d %s: FirstTouchColor(%v) for pid %d = %d, want %d", i, call, ref.colorsOf(pid), pid, got, w)
		}
	}
}
