package cache

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
)

// refLine is one resident line of the reference cache.
type refLine struct {
	addr  uint64
	dirty bool
}

// refCache is a deliberately naive set-associative write-back LRU
// cache: each set is an explicit list of resident lines, most recently
// used first, and every operation is a linear search plus a rebuild of
// that list. It shares no code with Cache.
type refCache struct {
	line, sets, assoc uint64
	set               [][]refLine

	misses, evictions, invalidations []uint64
}

func newRefCache(g arch.CacheGeometry) *refCache {
	n := g.Size / (g.LineSize * g.Assoc)
	return &refCache{
		line: uint64(g.LineSize), sets: uint64(n), assoc: uint64(g.Assoc),
		set:    make([][]refLine, n),
		misses: make([]uint64, n), evictions: make([]uint64, n), invalidations: make([]uint64, n),
	}
}

func (r *refCache) locate(addr uint64) (la, si uint64, pos int) {
	la = addr / r.line * r.line
	si = addr / r.line % r.sets
	for i, l := range r.set[si] {
		if l.addr == la {
			return la, si, i
		}
	}
	return la, si, -1
}

// without returns set with element i removed, in a fresh slice.
func without(set []refLine, i int) []refLine {
	out := append([]refLine{}, set[:i]...)
	return append(out, set[i+1:]...)
}

func (r *refCache) access(addr uint64, write bool) Result {
	la, si, i := r.locate(addr)
	if i >= 0 {
		l := r.set[si][i]
		l.dirty = l.dirty || write
		r.set[si] = append([]refLine{l}, without(r.set[si], i)...)
		return Result{Hit: true}
	}
	var res Result
	r.misses[si]++
	if uint64(len(r.set[si])) == r.assoc {
		victim := r.set[si][len(r.set[si])-1]
		res = Result{Evicted: true, VictimAddr: victim.addr, VictimDirty: victim.dirty}
		r.evictions[si]++
		r.set[si] = without(r.set[si], len(r.set[si])-1)
	}
	r.set[si] = append([]refLine{{addr: la, dirty: write}}, r.set[si]...)
	return res
}

func (r *refCache) probe(addr uint64) bool {
	_, _, i := r.locate(addr)
	return i >= 0
}

func (r *refCache) invalidate(addr uint64) (present, dirty bool) {
	_, si, i := r.locate(addr)
	if i < 0 {
		return false, false
	}
	dirty = r.set[si][i].dirty
	r.set[si] = without(r.set[si], i)
	r.invalidations[si]++
	return true, dirty
}

func (r *refCache) setDirty(addr uint64, dirty bool) {
	if _, si, i := r.locate(addr); i >= 0 {
		r.set[si][i].dirty = dirty
	}
}

func (r *refCache) flush() {
	for si := range r.set {
		r.set[si] = nil
	}
}

// pick returns an address in a random set: a random byte of one of
// assoc+2 candidate lines for that set, or, half the time, of the set's
// current MRU or LRU line so hits at both ends of the order are common.
func (r *refCache) pick(rng *rand.Rand) uint64 {
	si := uint64(rng.Intn(int(r.sets)))
	off := uint64(rng.Intn(int(r.line)))
	if set := r.set[si]; len(set) > 0 && rng.Intn(2) == 0 {
		if rng.Intn(2) == 0 {
			return set[0].addr + off
		}
		return set[len(set)-1].addr + off
	}
	tag := uint64(rng.Intn(int(r.assoc) + 2))
	return (tag*r.sets+si)*r.line + off
}

// TestCacheMatchesReference diffs Cache against refCache under random
// operations at associativities 1, 2, 3, 4 and 8: every operation's
// result, each set's contents in LRU order with dirty bits, and the
// occupancy, utilization and per-set profile counters.
func TestCacheMatchesReference(t *testing.T) {
	for _, assoc := range []int{1, 2, 3, 4, 8} {
		g := arch.CacheGeometry{Size: 8 * assoc * 32, LineSize: 32, Assoc: assoc}
		c, ref := New(g), newRefCache(g)
		c.EnableSetProfile()
		rng := rand.New(rand.NewSource(int64(assoc)))
		for step := 0; step < 20000; step++ {
			addr := ref.pick(rng)
			switch op := rng.Intn(100); {
			case op < 70:
				write := rng.Intn(3) == 0
				if got, want := c.Access(addr, write), ref.access(addr, write); got != want {
					t.Fatalf("assoc %d step %d: Access(%#x, %v) = %+v, want %+v", assoc, step, addr, write, got, want)
				}
			case op < 80:
				if got, want := c.Probe(addr), ref.probe(addr); got != want {
					t.Fatalf("assoc %d step %d: Probe(%#x) = %v, want %v", assoc, step, addr, got, want)
				}
			case op < 90:
				gp, gd := c.Invalidate(addr)
				wp, wd := ref.invalidate(addr)
				if gp != wp || gd != wd {
					t.Fatalf("assoc %d step %d: Invalidate(%#x) = (%v, %v), want (%v, %v)", assoc, step, addr, gp, gd, wp, wd)
				}
			case op < 95:
				c.Clean(addr)
				ref.setDirty(addr, false)
			case op < 99:
				c.MarkDirty(addr)
				ref.setDirty(addr, true)
			default:
				c.Flush()
				ref.flush()
			}
			compareWithReference(t, c, ref, assoc, step)
		}
	}
}

// dirtyBit is a way word's dirty bit for a line whose dirty flag is d.
func dirtyBit(d bool) uint64 {
	if d {
		return wayDirty
	}
	return 0
}

// compareWithReference checks every set's ways and the derived
// statistics against the reference.
func compareWithReference(t *testing.T, c *Cache, ref *refCache, assoc, step int) {
	t.Helper()
	used := 0
	occ := c.SetOccupancy()
	for si, want := range ref.set {
		ways := c.set(uint64(si))
		for i, w := range ways {
			if i < len(want) {
				if w != c.key(want[i].addr)|dirtyBit(want[i].dirty) || c.lineAddrOf(w, uint64(si)) != want[i].addr {
					t.Fatalf("assoc %d step %d: set %d way %d = %#x (line %#x), want %+v", assoc, step, si, i, w, c.lineAddrOf(w, uint64(si)), want[i])
				}
			} else if w != 0 {
				t.Fatalf("assoc %d step %d: set %d way %d = %#x, want empty", assoc, step, si, i, w)
			}
		}
		if got := occ[si]; got != float64(len(want))/float64(assoc) {
			t.Fatalf("assoc %d step %d: SetOccupancy[%d] = %v, want %d/%d", assoc, step, si, got, len(want), assoc)
		}
		if len(want) > 0 {
			used++
		}
	}
	if got, want := c.Utilization(), float64(used)/float64(len(ref.set)); got != want {
		t.Fatalf("assoc %d step %d: Utilization = %v, want %v", assoc, step, got, want)
	}
	p := c.Profile()
	for si := range ref.set {
		if p.Misses[si] != ref.misses[si] || p.Evictions[si] != ref.evictions[si] || p.Invalidations[si] != ref.invalidations[si] {
			t.Fatalf("assoc %d step %d: set %d profile (miss %d, evict %d, inval %d), want (%d, %d, %d)", assoc, step, si,
				p.Misses[si], p.Evictions[si], p.Invalidations[si], ref.misses[si], ref.evictions[si], ref.invalidations[si])
		}
	}
}

// TestInvalidateRangeMatchesReference diffs InvalidateRange against a
// loop of single-line Invalidate calls on a second Cache and against
// the per-set reference: the dirty result, every set's contents and the
// per-set Invalidations counts. Ranges start anywhere within a line,
// run from empty to past the whole cache, and wrap past the last set.
func TestInvalidateRangeMatchesReference(t *testing.T) {
	for _, assoc := range []int{1, 2, 4} {
		g := arch.CacheGeometry{Size: 8 * assoc * 32, LineSize: 32, Assoc: assoc}
		c, loop, ref := New(g), New(g), newRefCache(g)
		c.EnableSetProfile()
		loop.EnableSetProfile()
		rng := rand.New(rand.NewSource(int64(100 + assoc)))
		var unaligned, wrapped, dirtied int
		for step := 0; step < 20000; step++ {
			addr := ref.pick(rng)
			if rng.Intn(4) > 0 {
				write := rng.Intn(3) == 0
				c.Access(addr, write)
				loop.Access(addr, write)
				ref.access(addr, write)
				continue
			}
			size := uint64(rng.Intn(int(3 * ref.sets * ref.line)))
			got := c.InvalidateRange(addr, size)
			var viaLoop, want bool
			for la := addr / ref.line * ref.line; size > 0 && la < addr+size; la += ref.line {
				_, d := loop.Invalidate(la)
				viaLoop = viaLoop || d
				_, d = ref.invalidate(la)
				want = want || d
			}
			if got != viaLoop || got != want {
				t.Fatalf("assoc %d step %d: InvalidateRange(%#x, %d) dirty = %v, single-line loop %v, reference %v",
					assoc, step, addr, size, got, viaLoop, want)
			}
			if !slices.Equal(c.ways, loop.ways) || !slices.Equal(c.Profile().Invalidations, loop.Profile().Invalidations) {
				t.Fatalf("assoc %d step %d: InvalidateRange(%#x, %d) left a state the single-line loop does not", assoc, step, addr, size)
			}
			compareWithReference(t, c, ref, assoc, step)
			if size > 0 && addr%ref.line != 0 {
				unaligned++
			}
			if size > 0 && (addr+size-1)/ref.line%ref.sets < addr/ref.line%ref.sets {
				wrapped++
			}
			if got {
				dirtied++
			}
		}
		if unaligned == 0 || wrapped == 0 || dirtied == 0 {
			t.Errorf("assoc %d: generated %d unaligned, %d wrapping and %d dirty ranges, want some of each", assoc, unaligned, wrapped, dirtied)
		}
	}
}

// TestInvalidateRangeEdges pins the range boundaries: an empty range
// removes nothing, a one-byte range at a line's last byte removes that
// line only, and a range ending one byte into the next line removes
// both lines.
func TestInvalidateRangeEdges(t *testing.T) {
	g := arch.CacheGeometry{Size: 4 * 32, LineSize: 32, Assoc: 1}
	fill := func() *Cache {
		c := New(g)
		c.EnableSetProfile()
		for la := uint64(0); la < 4*32; la += 32 {
			c.Access(la, la == 32)
		}
		return c
	}
	for _, tc := range []struct {
		addr, size uint64
		gone       []uint64
		dirty      bool
	}{
		{addr: 40, size: 0},
		{addr: 63, size: 1, gone: []uint64{32}, dirty: true},
		{addr: 31, size: 2, gone: []uint64{0, 32}, dirty: true},
		{addr: 96, size: 64, gone: []uint64{96}},
		{addr: 64, size: 1 << 20, gone: []uint64{64, 96}},
		{addr: 16, size: 1 << 20, gone: []uint64{0, 32, 64, 96}, dirty: true},
	} {
		c := fill()
		if got := c.InvalidateRange(tc.addr, tc.size); got != tc.dirty {
			t.Errorf("InvalidateRange(%d, %d) dirty = %v, want %v", tc.addr, tc.size, got, tc.dirty)
		}
		for la := uint64(0); la < 4*32; la += 32 {
			gone, invals := slices.Contains(tc.gone, la), uint64(0)
			if gone {
				invals = 1
			}
			if c.Probe(la) == gone {
				t.Errorf("InvalidateRange(%d, %d): line %d resident = %v, want %v", tc.addr, tc.size, la, gone, !gone)
			}
			if got := c.Profile().Invalidations[la/32]; got != invals {
				t.Errorf("InvalidateRange(%d, %d): set %d Invalidations = %d, want %d", tc.addr, tc.size, la/32, got, invals)
			}
		}
	}
}

// FuzzCache decodes the input as a line-size byte (1 to 128 bytes), a
// set-count byte (1 to 64 sets), an associativity byte (1 to 8 ways)
// and a base byte that places the candidate lines at address 0, just
// below 2^63 or at the very top of the address space, followed by
// (op, set, tag, offset) quadruples. It replays Access, Probe,
// Invalidate, InvalidateRange, Clean, MarkDirty and Flush on a Cache
// and on the reference and compares each result, every set's ways and
// the per-set counters after every operation. Geometries that
// arch.CacheGeometry.Validate rejects are skipped.
func FuzzCache(f *testing.F) {
	f.Add([]byte{})
	// 32-B lines, 8 sets, 2 ways at address 0: fills, hits, evictions.
	seq := []byte{5, 3, 1, 0}
	for i := 0; i < 200; i++ {
		seq = append(seq, byte(i*7%16), byte(i*3), byte(i%5), byte(i*11))
	}
	f.Add(seq)
	// 1-B lines, 4 sets, 3 ways at the top of the address space: tags
	// wrap past 2^64 to address 0.
	seq = []byte{0, 2, 2, 3}
	for i := 0; i < 300; i++ {
		seq = append(seq, byte(i*5%16), byte(i), byte(i*7%6), byte(i))
	}
	f.Add(seq)
	// 2-B lines, 2 sets, 8 ways just below 2^63, with ranges and flushes.
	seq = []byte{1, 1, 7, 1}
	for i := 0; i < 300; i++ {
		seq = append(seq, byte(i*13%16), byte(i), byte(i%11), byte(i*3))
	}
	f.Add(seq)
	// 128-B lines, 64 sets, 4 ways near 2^64: invalidated ranges run
	// off the top of the address space.
	seq = []byte{7, 6, 3, 2}
	for i := 0; i < 300; i++ {
		op := byte(i * 3 % 16)
		if i%9 == 0 {
			op = 12
		}
		seq = append(seq, op, byte(i*29), byte(i%7), byte(i*17))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		g := arch.CacheGeometry{LineSize: 1 << (data[0] % 8), Assoc: int(data[2]%8) + 1}
		sets := uint64(1) << (data[1] % 7)
		g.Size = g.LineSize * int(sets) * g.Assoc
		if g.Validate() != nil {
			return
		}
		line, span := uint64(g.LineSize), sets*uint64(g.LineSize)
		base := [...]uint64{0, 1<<63 - 2*span, -(3 * span), -line}[data[3]%4]
		c, ref := New(g), newRefCache(g)
		c.EnableSetProfile()
		for i := 4; i+4 <= len(data); i += 4 {
			si := uint64(data[i+1]) % sets
			addr := base + (uint64(data[i+2]%uint8(g.Assoc+2))*sets+si)*line + uint64(data[i+3])%line
			if set := ref.set[si]; len(set) > 0 && data[i+2] >= 0xf0 {
				addr = set[int(data[i+2])%len(set)].addr + uint64(data[i+3])%line
			}
			switch op := data[i] % 16; {
			case op < 7:
				write := op >= 5
				if got, want := c.Access(addr, write), ref.access(addr, write); got != want {
					t.Fatalf("op %d: Access(%#x, %v) = %+v, want %+v", i, addr, write, got, want)
				}
			case op < 8:
				if got, want := c.Probe(addr), ref.probe(addr); got != want {
					t.Fatalf("op %d: Probe(%#x) = %v, want %v", i, addr, got, want)
				}
			case op < 10:
				gp, gd := c.Invalidate(addr)
				wp, wd := ref.invalidate(addr)
				if gp != wp || gd != wd {
					t.Fatalf("op %d: Invalidate(%#x) = (%v, %v), want (%v, %v)", i, addr, gp, gd, wp, wd)
				}
			case op < 13:
				size := uint64(data[i+1]) * 3 * span >> 8
				want := false
				if size > 0 {
					end := addr + size - 1
					if end < addr {
						end = ^uint64(0)
					}
					for l := addr / line; l <= end/line; l++ {
						_, d := ref.invalidate(l * line)
						want = want || d
						if l == end/line {
							break // the top line: l++ would wrap
						}
					}
				}
				if got := c.InvalidateRange(addr, size); got != want {
					t.Fatalf("op %d: InvalidateRange(%#x, %d) = %v, want %v", i, addr, size, got, want)
				}
			case op < 14:
				c.Clean(addr)
				ref.setDirty(addr, false)
			case op < 15:
				c.MarkDirty(addr)
				ref.setDirty(addr, true)
			default:
				c.Flush()
				ref.flush()
			}
			compareWithReference(t, c, ref, g.Assoc, i)
		}
	})
}
