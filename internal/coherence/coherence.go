package coherence

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/flat"
)

// Class classifies the outcome of a memory access at the external-cache
// level.
type Class uint8

const (
	// Hit: the line was present in the requesting CPU's external cache.
	Hit Class = iota
	// Cold: first access to the line by any CPU.
	Cold
	// TrueShare: miss caused by invalidation, and the word accessed was
	// written by another CPU — genuine communication.
	TrueShare
	// FalseShare: miss caused by invalidation of a line whose accessed
	// word was not written by another CPU — an artifact of line size.
	FalseShare
	// Replacement: the CPU once held the line and lost it to its own
	// eviction; split into conflict/capacity by the caller's shadow cache.
	Replacement
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Hit:
		return "hit"
	case Cold:
		return "cold"
	case TrueShare:
		return "true-share"
	case FalseShare:
		return "false-share"
	case Replacement:
		return "replacement"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

const wordSize = 8 // classification granularity (double-precision words)

// mask is a bitmask with one bit per directory node. New picks the
// narrowest width that holds the machine's node count, so a line's
// masks cost 3 bytes on a machine of up to 8 nodes rather than 24.
type mask interface {
	~uint8 | ~uint16 | ~uint32 | ~uint64
}

// lineState tracks one physical cache line, its word writers included
// while one node alone has written it, so a line costs no allocation of
// its own.
type lineState[M mask] struct {
	owners M // bitmask of CPUs holding the line
	// inval is the bitmask of CPUs whose last copy of the line was
	// invalidated by another CPU's write. A bit clears when the CPU
	// fetches the line again, so no holder's bit is ever set; a miss by a
	// CPU whose bit is set is a coherence (true- or false-sharing) miss
	// rather than a replacement.
	inval M
	// held records every CPU that has held the line at some point, to
	// distinguish Replacement from Cold per-CPU: the paper counts a
	// first-touch by a CPU of a line another CPU already fetched as a
	// replacement-class (shared-data distribution) miss only when the
	// requester lost it; an outright first touch by this CPU with no
	// invalidation is treated as Cold for this CPU.
	held       M
	dirtyOwner int8 // CPU holding it modified, -1 if none
	// writer is 0 while no node has written the line, and one more than
	// the node that has while that node is its sole writer: written then
	// has bit w set for each word w it wrote. Once a second node writes
	// the line, or any node a word past the 16 that written covers, the
	// line is mixed: writer is the mixed mark and the line's word
	// writers live in a row of the table's spill rows (see
	// table.spill). Nodes number at most 64, so no sole writer's entry
	// is the mark.
	writer  uint8
	written uint16
}

// mixed is lineState.writer for a line whose word writers live in a
// spill row.
const mixed = 0xff

// Outcome describes what the protocol did for one access.
type Outcome struct {
	Class       Class
	DirtyRemote bool // data supplied by another CPU's cache (higher latency)
	// Invalidated lists the CPUs whose copies were invalidated (write
	// path) in ascending order, nil when none were. It aliases the
	// directory's scratch buffer and is valid only until the next
	// Access or AccessInto.
	Invalidated []int
	Upgrade     bool // write hit on a shared line: ownership-only bus transaction
	// Downgraded is the CPU whose dirty copy was flushed to memory to
	// supply a read (the line stays cached there in shared, clean
	// state); -1 when no downgrade happened. The simulator must clean
	// that CPU's cached line, or its eventual eviction would charge a
	// second writeback for data memory already holds.
	Downgraded int
}

// blockShift is log2 of the lines one block-table entry covers: the
// directory gives 32 consecutive lines their slots together. With 128-B
// lines one block is exactly one 4-KB page frame.
const blockShift = 5

// chunkShift is log2 of the slots in one chunk: the directory allocates
// slots chunkBlocks = 64 blocks (2048 lines) at a time.
const (
	chunkShift  = 6 + blockShift
	chunkBlocks = 1 << (chunkShift - blockShift)
	chunkMask   = 1<<chunkShift - 1
)

// chunk holds the states of 1<<chunkShift consecutive slots. Slot i
// lives in chunk i>>chunkShift at offset i&chunkMask. A chunk is
// allocated when the first of its blocks is touched and is never copied
// or freed, so a slot keeps its address for the directory's life.
type chunk[M mask] [1 << chunkShift]lineState[M]

// Directory tracks all lines. Not safe for concurrent use; the simulator
// is single-threaded event-driven.
//
// Its state lives in a table whose masks are as wide as the node count
// needs, and each method inlines and forwards to it. The access path is
// a closure compiled with the table's generic code, not a method behind
// an interface: an interface call to a generic type's method goes
// through the instantiation's wrapper, a second call on every access.
type Directory struct {
	accessInto func(out *Outcome, cpu int, addr uint64, write bool)
	t          interface {
		Evict(cpu int, addr uint64)
		Forget(addr uint64)
		Holders(addr uint64) int
	}
	// out is Access's outcome. A pointer passed to a closure escapes,
	// so a local Outcome would cost Access an allocation.
	out Outcome
}

// table is the directory with M-bit node masks.
type table[M mask] struct {
	words     int    // classification words per line, and entries per spill row
	lineMask  uint64 // line size - 1; line size is a validated power of two
	lineShift uint   // log2(line size)

	// blocks is indexed by physical block number (line address >>
	// (lineShift+blockShift)) and holds b+1 for the block's slot block
	// b, 0 for a block never touched; line l of the block lives in slot
	// b<<blockShift | l. Physical addresses are bounded by the machine's
	// frame count, so the table is sized by the highest block touched
	// and grows on demand. Slot blocks are handed out in first-touch
	// order, nblocks so far, every slot starting fresh, and chunks holds
	// them 64 blocks to a chunk: a directory's memory is the blocks it
	// touched, rounded up to one chunk, and growth copies no line state.
	// Which CPUs lost a line to another CPU's write is the line's inval
	// mask. A fresh slot behaves exactly like a line the directory has
	// never seen.
	blocks  []uint32
	chunks  []*chunk[M]
	nblocks uint32

	// spill maps the slot of each mixed line to the offset in rows of
	// its spill row: one byte per word, one more than the node that last
	// wrote the word, 0 if none has. Rows of forgotten lines are reused
	// from freeRows. Lines with two writers are rare, so the rows cost
	// little next to the line states.
	spill    flat.Map
	rows     []uint8
	freeRows []uint32

	// scratch to avoid per-access allocation
	invalScratch []int
}

// New creates a directory for ncpu CPUs and the given external-cache line
// size in bytes. Its masks are the narrowest of 8, 16, 32 and 64 bits
// that hold ncpu.
func New(ncpu, lineSize int) *Directory {
	switch {
	case ncpu <= 0 || ncpu > 64:
		panic(fmt.Sprintf("coherence: ncpu %d out of range [1,64]", ncpu))
	case ncpu <= 8:
		return newTable[uint8](ncpu, lineSize).directory()
	case ncpu <= 16:
		return newTable[uint16](ncpu, lineSize).directory()
	case ncpu <= 32:
		return newTable[uint32](ncpu, lineSize).directory()
	default:
		return newTable[uint64](ncpu, lineSize).directory()
	}
}

func newTable[M mask](ncpu, lineSize int) *table[M] {
	return &table[M]{
		words:        max(lineSize/wordSize, 1), // a line narrower than a word is one word
		lineMask:     uint64(lineSize - 1),
		lineShift:    uint(bits.TrailingZeros(uint(lineSize))),
		invalScratch: make([]int, 0, ncpu),
	}
}

// Access performs the protocol action for cpu touching addr and returns
// its outcome. It is AccessInto for callers that want the outcome as a
// value.
func (d *Directory) Access(cpu int, addr uint64, write bool) Outcome {
	d.accessInto(&d.out, cpu, addr, write)
	return d.out
}

// AccessInto performs the protocol action for cpu touching addr and
// writes its outcome to *out, setting every field. Writing in place
// spares a hot caller the copy of a returned Outcome.
func (d *Directory) AccessInto(out *Outcome, cpu int, addr uint64, write bool) {
	d.accessInto(out, cpu, addr, write)
}

// Evict records that cpu's external cache displaced the line containing
// addr (capacity/conflict, not coherence); a later re-fetch by cpu is a
// Replacement miss.
func (d *Directory) Evict(cpu int, addr uint64) { d.t.Evict(cpu, addr) }

// Holders returns how many CPUs currently hold addr's line; for tests.
func (d *Directory) Holders(addr uint64) int { return d.t.Holders(addr) }

// Forget drops all protocol state for the line containing addr; used
// when a page is recolored and its old frame's lines cease to exist.
// The line's slot is reset to fresh in place.
func (d *Directory) Forget(addr uint64) { d.t.Forget(addr) }

// line returns the state of slot i.
func (d *table[M]) line(i uint32) *lineState[M] {
	return &d.chunks[i>>chunkShift][i&chunkMask]
}

// wroteOther reports whether a sole writer other than cpu wrote word w
// of s. It is false for a mixed line, whose written is 0, and for a
// line no node has written.
func (s *lineState[M]) wroteOther(cpu, w int) bool {
	// A sole writer's words all lie below 16, and the shift of a wider
	// word yields 0.
	return s.writer != uint8(cpu+1) && s.written>>uint(w)&1 != 0
}

// writeSole records cpu as the last writer of word w in s itself and
// reports true when cpu is the line's sole writer or its first, and w
// is one of the 16 words written covers. Otherwise it changes nothing
// and reports false: the write goes to the line's spill row.
func (s *lineState[M]) writeSole(cpu, w int) bool {
	if e := uint8(cpu + 1); (s.writer == e || s.writer == 0) && w < 16 {
		s.writer = e
		s.written |= 1 << uint(w)
		return true
	}
	return false
}

// writeSpilled records cpu as the last writer of word w of the line in
// slot i, whose state is s, in the line's spill row, where writeSole
// cannot: the line is mixed or becomes so now. A line that becomes
// mixed takes a spill row, a freed one if there is one, and its sole
// writer's words are copied into it.
//
//go:noinline
func (d *table[M]) writeSpilled(s *lineState[M], i uint32, cpu, w int) {
	off, ok := d.spill.Get(uint64(i))
	if !ok {
		if n := len(d.freeRows); n > 0 {
			off = uint64(d.freeRows[n-1])
			d.freeRows = d.freeRows[:n-1]
			clear(d.rows[off : off+uint64(d.words)])
		} else {
			off = uint64(len(d.rows))
			d.rows = append(d.rows, make([]uint8, d.words)...)
		}
		for m := s.written; m != 0; m &= m - 1 {
			d.rows[off+uint64(bits.TrailingZeros16(m))] = s.writer
		}
		d.spill.Put(uint64(i), off)
		s.writer, s.written = mixed, 0
	}
	d.rows[off+uint64(w)] = uint8(cpu + 1)
}

// spilledWroteOther reports whether a node other than cpu last wrote
// word w of the mixed line in slot i: the spill row's entry for the
// word is one more than the node that last wrote it, 0 if none has.
//
//go:noinline
func (d *table[M]) spilledWroteOther(i uint32, cpu, w int) bool {
	off, _ := d.spill.Get(uint64(i))
	last := d.rows[off+uint64(w)]
	return last != 0 && last != uint8(cpu+1)
}

// slot returns the slot of addr's line, false when its block was
// never touched.
func (d *table[M]) slot(addr uint64) (uint32, bool) {
	line := addr >> d.lineShift
	if blk := line >> blockShift; blk < uint64(len(d.blocks)) {
		if b := d.blocks[blk]; b != 0 {
			return (b-1)<<blockShift | uint32(line&(1<<blockShift-1)), true
		}
	}
	return 0, false
}

// touch gives addr's untouched block the next block of slots, all
// fresh, allocating a chunk when that block is a chunk's first, and
// returns addr's slot.
func (d *table[M]) touch(addr uint64) uint32 {
	blk := addr >> d.lineShift >> blockShift
	if blk >= uint64(len(d.blocks)) {
		grown := make([]uint32, max(blk+1, 2*uint64(len(d.blocks))))
		copy(grown, d.blocks)
		d.blocks = grown
		// Each block takes at most one slot block, so a chunk table
		// sized for the whole block table never grows on a new chunk.
		d.chunks = slices.Grow(d.chunks, (len(grown)+chunkBlocks-1)/chunkBlocks-len(d.chunks))
	}
	b := d.nblocks
	if b%chunkBlocks == 0 {
		d.chunks = append(d.chunks, new(chunk[M]))
	}
	d.nblocks++
	for i := b << blockShift; i < (b+1)<<blockShift; i++ {
		*d.line(i) = lineState[M]{dirtyOwner: -1}
	}
	d.blocks[blk] = b + 1
	i, _ := d.slot(addr)
	return i
}

// reset makes slot i fresh: no holder, no invalidated copy, no word
// written. A mixed line's spill row is freed.
func (d *table[M]) reset(i uint32) {
	s := d.line(i)
	if s.writer == mixed {
		off, _ := d.spill.Get(uint64(i))
		d.spill.Delete(uint64(i))
		d.freeRows = append(d.freeRows, uint32(off))
	}
	*s = lineState[M]{dirtyOwner: -1}
}

// classifyMiss determines the miss class for cpu accessing word w of
// the line in slot i, whose state is s. A miss by a CPU that never held
// the line is cold, and one after an invalidation false sharing, unless
// another CPU last wrote the word: then either is true sharing.
func (d *table[M]) classifyMiss(s *lineState[M], i uint32, cpu int, word int) Class {
	bit := M(1) << uint(cpu)
	switch {
	case s.held == 0 && s.owners == 0:
		return Cold
	case s.held&bit != 0 && s.inval&bit == 0:
		return Replacement
	case s.wroteOther(cpu, word) || s.writer == mixed && d.spilledWroteOther(i, cpu, word):
		return TrueShare
	case s.held&bit == 0:
		return Cold
	}
	return FalseShare
}

// wordIndex clamps the accessed word within the line.
func (d *table[M]) wordIndex(addr uint64) int {
	return int((addr & d.lineMask) / wordSize) // wordSize is a constant power of two
}

// directory returns the Directory over d, its access path bound as a
// closure whose body is the access itself. It must not inline: a
// closure inlined into New is compiled outside the table's generic code,
// and there the helpers it calls (slot, line, wordIndex) stay calls.
//
//go:noinline
func (d *table[M]) directory() *Directory {
	return &Directory{t: d, accessInto: func(out *Outcome, cpu int, addr uint64, write bool) {
		i, ok := d.slot(addr)
		if !ok {
			i = d.touch(addr) // first touch of addr's block
		}
		s := d.line(i)
		word := d.wordIndex(addr)
		bit := M(1) << uint(cpu)

		out.DirtyRemote, out.Upgrade, out.Invalidated, out.Downgraded = false, false, nil, -1
		if s.owners&bit != 0 {
			out.Class = Hit
			if write && s.owners != bit {
				// Write hit on a shared line: upgrade + invalidate others.
				out.Upgrade = true
				out.Invalidated = d.invalidateOthers(s, bit)
			}
		} else {
			out.Class = d.classifyMiss(s, i, cpu, word)
			if s.dirtyOwner >= 0 && int(s.dirtyOwner) != cpu {
				out.DirtyRemote = true
			}
			if write {
				out.Invalidated = d.invalidateOthers(s, bit)
			} else if s.dirtyOwner >= 0 && int(s.dirtyOwner) != cpu {
				// Read of a dirty remote line: owner downgrades to shared,
				// memory (and requester) get the data.
				out.Downgraded = int(s.dirtyOwner)
				s.dirtyOwner = -1
			}
			s.owners |= bit
			s.held |= bit
			s.inval &^= bit
		}

		if write {
			s.dirtyOwner = int8(cpu)
			if !s.writeSole(cpu, word) {
				d.writeSpilled(s, i, cpu, word)
			}
		}
	}}
}

// invalidateOthers removes every owner of line s except the CPU with
// mask bit, marks their copies as lost to another CPU's write, and
// returns the invalidated CPUs in ascending order in the reused scratch
// buffer (nil when there are none).
func (d *table[M]) invalidateOthers(s *lineState[M], bit M) []int {
	others := s.owners &^ bit
	if others == 0 {
		return nil
	}
	s.owners &= bit
	s.inval |= others
	d.invalScratch = d.invalScratch[:0]
	for m := uint64(others); m != 0; m &= m - 1 {
		d.invalScratch = append(d.invalScratch, bits.TrailingZeros64(m))
	}
	return d.invalScratch
}

// Evict is Directory.Evict.
func (d *table[M]) Evict(cpu int, addr uint64) {
	i, ok := d.slot(addr)
	if !ok {
		return
	}
	s := d.line(i)
	bit := M(1) << uint(cpu)
	if s.owners&bit == 0 {
		return
	}
	s.owners &^= bit // a self-inflicted loss: the CPU's inval bit stays clear
	if int(s.dirtyOwner) == cpu {
		s.dirtyOwner = -1 // written back to memory
	}
}

// Holders is Directory.Holders.
func (d *table[M]) Holders(addr uint64) int {
	i, ok := d.slot(addr)
	if !ok {
		return 0
	}
	return bits.OnesCount64(uint64(d.line(i).owners))
}

// Forget is Directory.Forget.
func (d *table[M]) Forget(addr uint64) {
	if i, ok := d.slot(addr); ok {
		d.reset(i)
	}
}
