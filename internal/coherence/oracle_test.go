package coherence

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/flat"
)

// oldDirectory is the directory as it was before its index covered
// blocks of lines: one index entry and one slot per line, with
// forgotten slots reused from a free list. It stays as the oracle the
// block-indexed directory is diffed against; do not optimize it.
type oldDirectory struct {
	ncpu     int
	words    int // classification words per line
	stride   int // slab bytes per line: words + ncpu
	lineSize uint64
	lineMask uint64 // lineSize - 1; line size is a validated power of two

	// index maps a line address to its slot in lines. Slot i's bytes
	// are bytes[i*stride : (i+1)*stride]: first the words writer
	// entries (wordWriter[w] is the CPU that last wrote word w, -1 if
	// never), then ncpu lost-to entries (lostTo[cpu] is the CPU whose
	// write invalidated cpu's copy, -1 when the copy was lost to cpu's
	// own eviction or never held). Both slabs grow by append; slots of
	// forgotten lines are reused from free.
	index flat.Map
	lines []lineState
	bytes []int8
	free  []uint32

	// scratch to avoid per-access allocation
	invalScratch []int
}

// newOldDirectory creates an oracle directory for ncpu CPUs and the given external-cache line
// size in bytes.
func newOldDirectory(ncpu, lineSize int) *oldDirectory {
	if ncpu <= 0 || ncpu > 64 {
		panic(fmt.Sprintf("coherence: ncpu %d out of range [1,64]", ncpu))
	}
	return &oldDirectory{
		ncpu:         ncpu,
		words:        lineSize / wordSize,
		stride:       lineSize/wordSize + ncpu,
		lineSize:     uint64(lineSize),
		lineMask:     uint64(lineSize - 1),
		invalScratch: make([]int, 0, ncpu),
	}
}

func (d *oldDirectory) lineOf(addr uint64) uint64 { return addr &^ (d.lineSize - 1) }

// wordWriter returns the writer entry of word w of the line in slot i.
func (d *oldDirectory) wordWriter(i uint32, w int) *int8 {
	return &d.bytes[int(i)*d.stride+w]
}

// lostTo returns the lost-to entry of cpu for the line in slot i.
func (d *oldDirectory) lostTo(i uint32, cpu int) *int8 {
	return &d.bytes[int(i)*d.stride+d.words+cpu]
}

// state returns the slot of line la, creating a fresh state (no holder,
// every writer and invalidator -1) on first touch.
func (d *oldDirectory) state(la uint64) uint32 {
	if i, ok := d.index.Get(la); ok {
		return uint32(i)
	}
	var i uint32
	if n := len(d.free); n > 0 {
		i = d.free[n-1]
		d.free = d.free[:n-1]
		d.lines[i] = lineState{dirtyOwner: -1}
	} else {
		i = uint32(len(d.lines))
		d.lines = append(d.lines, lineState{dirtyOwner: -1})
		d.bytes = append(d.bytes, make([]int8, d.stride)...)
	}
	b := d.bytes[int(i)*d.stride : int(i+1)*d.stride]
	for j := range b {
		b[j] = -1
	}
	d.index.Put(la, uint64(i))
	return i
}

// classifyMiss determines the miss class for cpu accessing word w of
// the line in slot i.
func (d *oldDirectory) classifyMiss(i uint32, cpu int, word int) Class {
	s := &d.lines[i]
	if s.held == 0 && s.owners == 0 {
		return Cold
	}
	if s.held&(1<<uint(cpu)) == 0 {
		// This CPU never held the line; another CPU touched it first.
		// If the word was produced by another CPU this is communication.
		if w := *d.wordWriter(i, word); w >= 0 && int(w) != cpu {
			return TrueShare
		}
		return Cold
	}
	if inv := *d.lostTo(i, cpu); inv >= 0 {
		if w := *d.wordWriter(i, word); w >= 0 && int(w) != cpu {
			return TrueShare
		}
		return FalseShare
	}
	return Replacement
}

// wordIndex clamps the accessed word within the line.
func (d *oldDirectory) wordIndex(addr uint64) int {
	return int((addr & d.lineMask) / wordSize) // wordSize is a constant power of two
}

// Access performs the protocol action for cpu touching addr.
func (d *oldDirectory) Access(cpu int, addr uint64, write bool) Outcome {
	la := d.lineOf(addr)
	i := d.state(la)
	s := &d.lines[i]
	word := d.wordIndex(addr)
	bit := uint64(1) << uint(cpu)

	out := Outcome{Downgraded: -1}
	if s.owners&bit != 0 {
		out.Class = Hit
		if write && s.owners != bit {
			// Write hit on a shared line: upgrade + invalidate others.
			out.Upgrade = true
			out.Invalidated = d.invalidateOthers(i, cpu)
		}
	} else {
		out.Class = d.classifyMiss(i, cpu, word)
		if s.dirtyOwner >= 0 && int(s.dirtyOwner) != cpu {
			out.DirtyRemote = true
		}
		if write {
			out.Invalidated = d.invalidateOthers(i, cpu)
		} else if s.dirtyOwner >= 0 && int(s.dirtyOwner) != cpu {
			// Read of a dirty remote line: owner downgrades to shared,
			// memory (and requester) get the data.
			out.Downgraded = int(s.dirtyOwner)
			s.dirtyOwner = -1
		}
		s.owners |= bit
		s.held |= bit
		*d.lostTo(i, cpu) = -1
	}

	if write {
		s.dirtyOwner = int8(cpu)
		*d.wordWriter(i, word) = int8(cpu)
	}
	return out
}

// invalidateOthers removes every owner of the line in slot i except
// cpu, recording cpu as the invalidator, and returns the list of
// invalidated CPUs in the reused scratch buffer (nil when the list is
// empty).
func (d *oldDirectory) invalidateOthers(i uint32, cpu int) []int {
	s := &d.lines[i]
	d.invalScratch = d.invalScratch[:0]
	for p := 0; p < d.ncpu; p++ {
		if p == cpu {
			continue
		}
		if s.owners&(1<<uint(p)) != 0 {
			s.owners &^= 1 << uint(p)
			*d.lostTo(i, p) = int8(cpu)
			d.invalScratch = append(d.invalScratch, p)
		}
	}
	if len(d.invalScratch) == 0 {
		return nil
	}
	return d.invalScratch
}

// Evict records that cpu's external cache displaced the line containing
// addr (capacity/conflict, not coherence); a later re-fetch by cpu is a
// Replacement miss.
func (d *oldDirectory) Evict(cpu int, addr uint64) {
	j, ok := d.index.Get(d.lineOf(addr))
	if !ok {
		return
	}
	i := uint32(j)
	s := &d.lines[i]
	bit := uint64(1) << uint(cpu)
	if s.owners&bit == 0 {
		return
	}
	s.owners &^= bit
	*d.lostTo(i, cpu) = -1 // self-inflicted loss
	if int(s.dirtyOwner) == cpu {
		s.dirtyOwner = -1 // written back to memory
	}
}

// Holders returns how many CPUs currently hold addr's line; for tests.
func (d *oldDirectory) Holders(addr uint64) int {
	i, ok := d.index.Get(d.lineOf(addr))
	if !ok {
		return 0
	}
	return bits.OnesCount64(d.lines[i].owners)
}

// Forget drops all protocol state for the line containing addr; used
// when a page is recolored and its old frame's lines cease to exist.
// The line's slot is reused by the next line the directory creates.
func (d *oldDirectory) Forget(addr uint64) {
	la := d.lineOf(addr)
	if i, ok := d.index.Get(la); ok {
		d.index.Delete(la)
		d.free = append(d.free, uint32(i))
	}
}

// Reset drops all line state (between independent runs).
func (d *oldDirectory) Reset() {
	d.index.Clear()
	d.lines, d.bytes, d.free = d.lines[:0], d.bytes[:0], d.free[:0]
}

// diffOp runs one random Access, Evict, Forget or Holders call at addr
// on d and ref and fails t, naming the call after at, when the results
// differ.
func diffOp(t *testing.T, d *Directory, ref *oldDirectory, rng *rand.Rand, addr uint64, at string) {
	t.Helper()
	cpu := rng.Intn(ref.ncpu)
	switch op := rng.Intn(100); {
	case op < 70:
		write := rng.Intn(2) == 0
		if got, want := d.Access(cpu, addr, write), ref.Access(cpu, addr, write); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Access(%d, %#x, %v) = %+v, want %+v", at, cpu, addr, write, got, want)
		}
	case op < 85:
		d.Evict(cpu, addr)
		ref.Evict(cpu, addr)
	case op < 92:
		d.Forget(addr)
		ref.Forget(addr)
	default:
		if got, want := d.Holders(addr), ref.Holders(addr); got != want {
			t.Fatalf("%s: Holders(%#x) = %d, want %d", at, addr, got, want)
		}
	}
}

// TestBlockTableMatchesOracle diffs the directory against the oracle
// where the block table's layout matters. Each round touches sparse
// blocks up to a higher bound, so the table grows round by round. A
// Reset between rounds keeps the table, and the next round reuses the
// earlier rounds' blocks. Forget, Evict and Holders on blocks never
// touched, inside the table and beyond it, must agree with the oracle
// and must not grow the table.
func TestBlockTableMatchesOracle(t *testing.T) {
	for _, lineSize := range []int{16, 128} {
		d, ref := New(4, lineSize), newOldDirectory(4, lineSize)
		rng := rand.New(rand.NewSource(int64(lineSize)))
		blockBytes := uint64(lineSize) << blockShift
		var blocks []uint64
		for round, top := range []uint64{1, 40, 1 << 12, 1 << 20} {
			blocks = append(blocks, top/2+1, top)
			touched := map[uint64]bool{}
			for step := 0; step < 4000; step++ {
				blk := blocks[rng.Intn(len(blocks))]
				touched[blk] = true
				addr := blk*blockBytes + uint64(rng.Intn(int(blockBytes)))
				diffOp(t, d, ref, rng, addr, fmt.Sprintf("line %d round %d step %d", lineSize, round, step))
			}
			n := uint64(len(d.blocks))
			if n <= top {
				t.Fatalf("line %d round %d: table holds %d blocks, want more than %d", lineSize, round, n, top)
			}
			for _, blk := range []uint64{top + 1, n - 1, n, 3*n + 7} {
				if touched[blk] {
					continue
				}
				addr := blk*blockBytes + uint64(rng.Intn(int(blockBytes)))
				d.Forget(addr)
				ref.Forget(addr)
				d.Evict(1, addr)
				ref.Evict(1, addr)
				if got, want := d.Holders(addr), ref.Holders(addr); got != want {
					t.Fatalf("line %d round %d: Holders(%#x) of an untouched block = %d, want %d", lineSize, round, addr, got, want)
				}
			}
			if got := uint64(len(d.blocks)); got != n {
				t.Fatalf("line %d round %d: calls on untouched blocks grew the table from %d to %d", lineSize, round, n, got)
			}
			d.Reset()
			ref.Reset()
			if got := uint64(len(d.blocks)); got != n {
				t.Fatalf("line %d round %d: Reset resized the table from %d to %d", lineSize, round, n, got)
			}
		}
	}
}

// lineSizes are the line sizes FuzzDirectory draws from.
var lineSizes = [...]int{8, 16, 32, 64, 128, 256}

// FuzzDirectory decodes the input as a CPU-count byte and a line-size
// byte followed by (op, cpu, offset, block) quadruples, and diffs two
// directories against the oracle after every operation: one driven
// through Access, the other through AccessInto with one Outcome reused
// across calls, so a field AccessInto fails to reset shows as a stale
// Invalidated, Downgraded or flag.
func FuzzDirectory(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 4, 0, 0, 0, 0, 6, 1, 0, 0, 0, 1, 0, 0, 13, 0, 0, 0})
	// Four readers, a writer that invalidates them all, and the
	// readers back: false and true sharing, then a reset.
	f.Add([]byte{7, 4, 0, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 6, 4, 0, 1, 0, 0, 9, 1, 0, 1, 3, 1, 0, 1, 15, 0, 0, 0, 0, 0, 0, 1})
	// Ping-pong writes on one word by the highest and lowest of 64
	// CPUs, evictions, a forget and a dirty read.
	f.Add([]byte{63, 2, 6, 63, 5, 0, 6, 0, 5, 0, 6, 63, 5, 0, 10, 0, 5, 0, 0, 0, 5, 0, 12, 63, 5, 0, 6, 63, 5, 0, 0, 0, 5, 0, 13, 0, 5, 0})
	// A copy invalidated, fetched again and then evicted misses as a
	// replacement, not as sharing.
	f.Add([]byte{1, 4, 0, 1, 0, 0, 6, 0, 0, 0, 0, 1, 0, 0, 10, 1, 0, 0, 0, 1, 0, 0})
	seq := []byte{15, 5}
	for i := 0; i < 400; i++ {
		seq = append(seq, byte(i*7%16), byte(i*11%17), byte(i*13%32), byte(i%5))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ncpu := int(data[0]%64) + 1
		lineSize := lineSizes[int(data[1])%len(lineSizes)]
		byValue, inPlace, ref := New(ncpu, lineSize), New(ncpu, lineSize), newOldDirectory(ncpu, lineSize)
		var out Outcome
		for i := 2; i+4 <= len(data); i += 4 {
			cpu := int(data[i+1]) % ncpu
			addr := uint64(data[i+3])<<13 | uint64(data[i+2])<<3
			switch op := data[i] % 16; {
			case op < 10: // 0-5 read, 6-9 write
				write := op >= 6
				want := ref.Access(cpu, addr, write)
				if got := byValue.Access(cpu, addr, write); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: Access(%d, %#x, %v) = %+v, want %+v", i, cpu, addr, write, got, want)
				}
				if inPlace.AccessInto(&out, cpu, addr, write); !reflect.DeepEqual(out, want) {
					t.Fatalf("op %d: AccessInto(%d, %#x, %v) wrote %+v, want %+v", i, cpu, addr, write, out, want)
				}
			case op < 12:
				byValue.Evict(cpu, addr)
				inPlace.Evict(cpu, addr)
				ref.Evict(cpu, addr)
			case op < 13:
				byValue.Forget(addr)
				inPlace.Forget(addr)
				ref.Forget(addr)
			case op < 15:
				want := ref.Holders(addr)
				if a, b := byValue.Holders(addr), inPlace.Holders(addr); a != want || b != want {
					t.Fatalf("op %d: Holders(%#x) = %d and %d, want %d", i, addr, a, b, want)
				}
			default:
				byValue.Reset()
				inPlace.Reset()
				ref.Reset()
			}
		}
	})
}
