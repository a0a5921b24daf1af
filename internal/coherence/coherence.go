package coherence

import (
	"fmt"
	"math/bits"
	"slices"
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

// lineState tracks one physical cache line. Its per-word writers are
// bytes in its chunk's writer row (see chunk), so a line costs no
// allocation of its own.
type lineState struct {
	owners uint64 // bitmask of CPUs holding the line
	// inval is the bitmask of CPUs whose last copy of the line was
	// invalidated by another CPU's write. A bit clears when the CPU
	// fetches the line again, so no holder's bit is ever set; a miss by a
	// CPU whose bit is set is a coherence (true- or false-sharing) miss
	// rather than a replacement.
	inval uint64
	// held records every CPU that has held the line at some point, to
	// distinguish Replacement from Cold per-CPU: the paper counts a
	// first-touch by a CPU of a line another CPU already fetched as a
	// replacement-class (shared-data distribution) miss only when the
	// requester lost it; an outright first touch by this CPU with no
	// invalidation is treated as Cold for this CPU.
	held       uint64
	dirtyOwner int8 // CPU holding it modified, -1 if none
}

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

// chunk holds the states and word-writer bytes of 1<<chunkShift
// consecutive slots. Slot i lives in chunk i>>chunkShift at offset
// i&chunkMask; the writers of the slot at offset o are writers[o*words :
// (o+1)*words], one entry per word (the CPU that last wrote the word, -1
// if never). A chunk is allocated when the first of its blocks is
// touched and is never copied or freed, so a slot keeps its address for
// the directory's life.
type chunk struct {
	lines   [1 << chunkShift]lineState
	writers []int8
}

// Directory tracks all lines. Not safe for concurrent use; the simulator
// is single-threaded event-driven.
type Directory struct {
	words     int    // classification words per line, and writer bytes per slot
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
	chunks  []*chunk
	nblocks uint32

	// scratch to avoid per-access allocation
	invalScratch []int
}

// New creates a directory for ncpu CPUs and the given external-cache line
// size in bytes.
func New(ncpu, lineSize int) *Directory {
	if ncpu <= 0 || ncpu > 64 {
		panic(fmt.Sprintf("coherence: ncpu %d out of range [1,64]", ncpu))
	}
	return &Directory{
		words:        lineSize / wordSize,
		lineMask:     uint64(lineSize - 1),
		lineShift:    uint(bits.TrailingZeros(uint(lineSize))),
		invalScratch: make([]int, 0, ncpu),
	}
}

// at returns the chunk holding slot i and the slot's offset in it.
func (d *Directory) at(i uint32) (*chunk, uint32) {
	return d.chunks[i>>chunkShift], i & chunkMask
}

// wordWriter returns the writer entry of word w of the slot at offset o
// of chunk c.
func (d *Directory) wordWriter(c *chunk, o uint32, w int) *int8 {
	return &c.writers[int(o)*d.words+w]
}

// slot returns the slot of addr's line, false when its block was
// never touched.
func (d *Directory) slot(addr uint64) (uint32, bool) {
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
func (d *Directory) touch(addr uint64) uint32 {
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
		d.chunks = append(d.chunks, &chunk{writers: make([]int8, d.words<<chunkShift)})
	}
	d.nblocks++
	for i := b << blockShift; i < (b+1)<<blockShift; i++ {
		d.reset(i)
	}
	d.blocks[blk] = b + 1
	i, _ := d.slot(addr)
	return i
}

// reset makes slot i fresh: no holder, no invalidated copy, every
// writer -1.
func (d *Directory) reset(i uint32) {
	c, o := d.at(i)
	c.lines[o] = lineState{dirtyOwner: -1}
	w := c.writers[int(o)*d.words : int(o+1)*d.words]
	for j := range w {
		w[j] = -1
	}
}

// classifyMiss determines the miss class for cpu accessing word w of
// the line at offset o of chunk c.
func (d *Directory) classifyMiss(c *chunk, o uint32, cpu int, word int) Class {
	s := &c.lines[o]
	if s.held == 0 && s.owners == 0 {
		return Cold
	}
	if s.held&(1<<uint(cpu)) == 0 {
		// This CPU never held the line; another CPU touched it first.
		// If the word was produced by another CPU this is communication.
		if w := *d.wordWriter(c, o, word); w >= 0 && int(w) != cpu {
			return TrueShare
		}
		return Cold
	}
	if s.inval&(1<<uint(cpu)) != 0 {
		if w := *d.wordWriter(c, o, word); w >= 0 && int(w) != cpu {
			return TrueShare
		}
		return FalseShare
	}
	return Replacement
}

// wordIndex clamps the accessed word within the line.
func (d *Directory) wordIndex(addr uint64) int {
	return int((addr & d.lineMask) / wordSize) // wordSize is a constant power of two
}

// Access performs the protocol action for cpu touching addr and returns
// its outcome. It is AccessInto for callers that want the outcome as a
// value.
func (d *Directory) Access(cpu int, addr uint64, write bool) (out Outcome) {
	d.AccessInto(&out, cpu, addr, write)
	return out
}

// AccessInto performs the protocol action for cpu touching addr and
// writes its outcome to *out, setting every field. Writing in place
// spares a hot caller the copy of a returned Outcome.
func (d *Directory) AccessInto(out *Outcome, cpu int, addr uint64, write bool) {
	i, ok := d.slot(addr)
	if !ok {
		i = d.touch(addr) // first touch of addr's block
	}
	c, o := d.at(i)
	s := &c.lines[o]
	word := d.wordIndex(addr)
	bit := uint64(1) << uint(cpu)

	out.DirtyRemote, out.Upgrade, out.Invalidated, out.Downgraded = false, false, nil, -1
	if s.owners&bit != 0 {
		out.Class = Hit
		if write && s.owners != bit {
			// Write hit on a shared line: upgrade + invalidate others.
			out.Upgrade = true
			out.Invalidated = d.invalidateOthers(s, bit)
		}
	} else {
		out.Class = d.classifyMiss(c, o, cpu, word)
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
		*d.wordWriter(c, o, word) = int8(cpu)
	}
}

// invalidateOthers removes every owner of line s except the CPU with
// mask bit, marks their copies as lost to another CPU's write, and
// returns the invalidated CPUs in ascending order in the reused scratch
// buffer (nil when there are none).
func (d *Directory) invalidateOthers(s *lineState, bit uint64) []int {
	others := s.owners &^ bit
	if others == 0 {
		return nil
	}
	s.owners &= bit
	s.inval |= others
	d.invalScratch = d.invalScratch[:0]
	for m := others; m != 0; m &= m - 1 {
		d.invalScratch = append(d.invalScratch, bits.TrailingZeros64(m))
	}
	return d.invalScratch
}

// Evict records that cpu's external cache displaced the line containing
// addr (capacity/conflict, not coherence); a later re-fetch by cpu is a
// Replacement miss.
func (d *Directory) Evict(cpu int, addr uint64) {
	i, ok := d.slot(addr)
	if !ok {
		return
	}
	c, o := d.at(i)
	s := &c.lines[o]
	bit := uint64(1) << uint(cpu)
	if s.owners&bit == 0 {
		return
	}
	s.owners &^= bit // a self-inflicted loss: the CPU's inval bit stays clear
	if int(s.dirtyOwner) == cpu {
		s.dirtyOwner = -1 // written back to memory
	}
}

// Holders returns how many CPUs currently hold addr's line; for tests.
func (d *Directory) Holders(addr uint64) int {
	i, ok := d.slot(addr)
	if !ok {
		return 0
	}
	c, o := d.at(i)
	return bits.OnesCount64(c.lines[o].owners)
}

// Forget drops all protocol state for the line containing addr; used
// when a page is recolored and its old frame's lines cease to exist.
// The line's slot is reset to fresh in place.
func (d *Directory) Forget(addr uint64) {
	if i, ok := d.slot(addr); ok {
		d.reset(i)
	}
}
