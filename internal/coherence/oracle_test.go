package coherence

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
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
	lines []lineState[uint64]
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
		words:        max(lineSize/wordSize, 1),
		stride:       max(lineSize/wordSize, 1) + ncpu,
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
		d.lines[i] = lineState[uint64]{dirtyOwner: -1}
	} else {
		i = uint32(len(d.lines))
		d.lines = append(d.lines, lineState[uint64]{dirtyOwner: -1})
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
// where the block table's and the chunks' layout matters. Three rounds
// touch new blocks on one directory: ascending blocks that fill three
// chunks and start a fourth, scattered blocks below 1<<12, and blocks
// beyond the current block table. Each round first touches its blocks in
// order, then diffs random calls over every block touched so far.
// Forget, Evict and Holders on blocks never touched, inside the table
// and beyond it, must agree with the oracle and must not grow the table.
// Every touched block takes one slot block, and the chunks hold exactly
// those.
func TestBlockTableMatchesOracle(t *testing.T) {
	for _, lineSize := range []int{16, 128} {
		tb, ref := newTable[uint8](4, lineSize), newOldDirectory(4, lineSize)
		d := tb.directory()
		rng := rand.New(rand.NewSource(int64(lineSize)))
		blockBytes := uint64(lineSize) << blockShift
		touched := map[uint64]bool{}
		var blocks []uint64
		for round := range 3 {
			var set []uint64
			switch round {
			case 0:
				for blk := range uint64(3*chunkBlocks + 5) {
					set = append(set, blk)
				}
			case 1:
				for range 2 * chunkBlocks {
					set = append(set, uint64(rng.Intn(1<<12)))
				}
			case 2:
				n := uint64(len(tb.blocks))
				set = []uint64{n, 3*n + 7, 1 << 20}
			}
			for _, blk := range set {
				if !touched[blk] {
					touched[blk] = true
					blocks = append(blocks, blk)
				}
				addr := blk*blockBytes + uint64(rng.Intn(int(blockBytes)))
				if got, want := d.Access(1, addr, true), ref.Access(1, addr, true); !reflect.DeepEqual(got, want) {
					t.Fatalf("line %d round %d: first Access(1, %#x, true) = %+v, want %+v", lineSize, round, addr, got, want)
				}
			}
			for step := 0; step < 4000; step++ {
				blk := blocks[rng.Intn(len(blocks))]
				addr := blk*blockBytes + uint64(rng.Intn(int(blockBytes)))
				diffOp(t, d, ref, rng, addr, fmt.Sprintf("line %d round %d step %d", lineSize, round, step))
			}
			n := uint64(len(tb.blocks))
			for _, blk := range []uint64{slices.Max(set) + 1, n - 1, n, 3*n + 7} {
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
			if got := uint64(len(tb.blocks)); got != n {
				t.Fatalf("line %d round %d: calls on untouched blocks grew the table from %d to %d", lineSize, round, n, got)
			}
			if got, want := int(tb.nblocks), len(touched); got != want {
				t.Fatalf("line %d round %d: %d slot blocks for %d touched blocks", lineSize, round, got, want)
			}
			if got, want := len(tb.chunks), (len(touched)+chunkBlocks-1)/chunkBlocks; got != want {
				t.Fatalf("line %d round %d: %d chunks for %d touched blocks, want %d", lineSize, round, got, len(touched), want)
			}
		}
		if len(tb.chunks) < 3 {
			t.Fatalf("line %d: the rounds span %d chunks, want at least 3", lineSize, len(tb.chunks))
		}
	}
}

// TestChunksGrowWithoutCopying: a line's state, its word writers
// included, keeps its address and its value while the directory grows
// by two chunks, so growth copied nothing. Once the block table spans
// the blocks touched, a new chunk costs exactly one allocation, and
// touching blocks that fit in the last chunk costs none.
func TestChunksGrowWithoutCopying(t *testing.T) {
	const lineSize = 128
	blockBytes := uint64(lineSize) << blockShift
	tb := newTable[uint8](4, lineSize)
	d := tb.directory()
	// The first block touched sits above every other one below, so the
	// block table, and with it the chunk table, is sized once here.
	far := 16 * chunkBlocks * blockBytes
	d.Access(2, far, true)
	i, _ := tb.slot(far)
	early := tb.line(i)

	next := uint64(0) // lowest block never touched
	touch := func() {
		d.Access(1, next*blockBytes, false)
		next++
	}
	for range 2 * chunkBlocks {
		touch()
	}
	if len(tb.chunks) != 3 {
		t.Fatalf("%d chunks after touching %d blocks, want 3", len(tb.chunks), tb.nblocks)
	}
	if tb.line(i) != early {
		t.Fatal("growing by two chunks moved an early line's state")
	}
	if early.owners != 1<<2 || early.dirtyOwner != 2 || early.writer != 2+1 || early.written != 1 {
		t.Fatalf("early line state %+v, want owned and dirtied by CPU 2, its sole writer, of word 0", *early)
	}

	if got := testing.AllocsPerRun(20, touch); got != 0 {
		t.Errorf("touching a block that fits in the last chunk: %v allocations, want 0", got)
	}
	for tb.nblocks%chunkBlocks != 0 {
		touch()
	}
	newChunk := func() {
		for range chunkBlocks {
			touch()
		}
	}
	// One run per count, so that no average hides a chunk that cost
	// more: twelve new chunks take the chunk table past 8 entries.
	for range 6 {
		if got := testing.AllocsPerRun(1, newChunk); got != 1 {
			t.Fatalf("filling new chunk %d: %v allocations, want 1", len(tb.chunks), got)
		}
	}
	if next*blockBytes >= far {
		t.Fatalf("touched up to block %d, past the block that sized the table", next)
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
	// readers back: false and true sharing, then a Holders query.
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
	// With 128-B lines every block byte is its own block, so 200
	// distinct block bytes span four chunks. Ascending first touches
	// grow the block table past its end ten times, then the early
	// blocks are shared, written and read back.
	seq = []byte{7, 4}
	for i := 0; i < 200; i++ {
		seq = append(seq, byte(i%6), byte(i%8), byte(i*5%32), byte(i))
	}
	for i := 0; i < 200; i++ {
		seq = append(seq, byte(i*7%16), byte(i*3%8), byte(i*5%32), byte(i%40))
	}
	f.Add(seq)
	// Scattered blocks mixed with every operation: the reads and writes
	// first-touch 160 distinct blocks, three chunks, four of them beyond
	// the block table at the time.
	seq = []byte{15, 4}
	for i := 0; i < 256; i++ {
		seq = append(seq, byte(i*7%16), byte(i*11%16), byte(i*13%32), byte(i*97))
	}
	f.Add(seq)
	// One seed per CPU count the seeds above leave out, at each mask
	// width's edge (1, 9, 17, 32, 33 CPUs) and at 14, 15 and 16 CPUs,
	// the last three with 8-B lines, whose slots have one word each: the
	// CPU bytes step by 37, so every CPU, the top bit of the width
	// included, reads, writes, evicts and is invalidated.
	for _, n := range []byte{0, 8, 16, 31, 32, 13, 14, 15} {
		seq = []byte{n, 4}
		if n >= 13 && n <= 15 {
			seq[1] = 0
		}
		for i := 0; i < 300; i++ {
			seq = append(seq, byte(i*7%16), byte(i*37), byte(i*13%32), byte(i%6))
		}
		f.Add(seq)
	}
	// spillScript at 1, 8, 9, 15, 16, 17 and 64 CPUs on 128- and 256-B
	// lines: a line written by two CPUs, then a third, true and false
	// sharing on the spilled line, a Forget that frees its row, a second
	// line spilling into the freed row, and on 256-B lines an upper word
	// that spills a line with one writer.
	for _, n := range []int{1, 8, 9, 15, 16, 17, 64} {
		for _, sizeIdx := range []byte{4, 5} {
			seq = []byte{byte(n - 1), sizeIdx}
			for _, op := range spillScript(n, lineSizes[sizeIdx]/wordSize) {
				code := map[byte]byte{'r': 0, 'w': 6, 'e': 10, 'f': 12}[op.kind]
				seq = append(seq, code, byte(op.cpu), byte(op.word), byte(op.line))
			}
			f.Add(seq)
		}
	}
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
			default:
				want := ref.Holders(addr)
				if a, b := byValue.Holders(addr), inPlace.Holders(addr); a != want || b != want {
					t.Fatalf("op %d: Holders(%#x) = %d and %d, want %d", i, addr, a, b, want)
				}
			}
		}
	})
}
