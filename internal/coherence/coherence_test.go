package coherence

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

const line = 128

func TestColdMiss(t *testing.T) {
	d := New(4, line)
	out := d.Access(0, 0x1000, false)
	if out.Class != Cold {
		t.Errorf("class = %v, want cold", out.Class)
	}
	if out.DirtyRemote || out.Upgrade || out.Invalidated != nil {
		t.Errorf("unexpected protocol action: %+v", out)
	}
}

func TestHitAfterFill(t *testing.T) {
	d := New(4, line)
	d.Access(0, 0x1000, false)
	if out := d.Access(0, 0x1040, false); out.Class != Hit {
		t.Errorf("same-line access class = %v, want hit", out.Class)
	}
}

func TestReadSharing(t *testing.T) {
	d := New(4, line)
	d.Access(0, 0x1000, false)
	out := d.Access(1, 0x1000, false)
	// CPU1 never held the line and the word was never written: cold.
	if out.Class != Cold {
		t.Errorf("class = %v, want cold", out.Class)
	}
	if d.Holders(0x1000) != 2 {
		t.Errorf("holders = %d, want 2", d.Holders(0x1000))
	}
}

func TestTrueSharingOnProducedWord(t *testing.T) {
	d := New(4, line)
	d.Access(0, 0x1000, true) // CPU0 produces word 0
	out := d.Access(1, 0x1000, false)
	if out.Class != TrueShare {
		t.Errorf("class = %v, want true-share", out.Class)
	}
	if !out.DirtyRemote {
		t.Error("dirty line should be supplied by remote cache")
	}
}

func TestFalseSharingOnUnrelatedWord(t *testing.T) {
	d := New(4, line)
	// CPU1 reads word 8 of the line, CPU0 writes word 0, CPU1 re-reads word 8.
	d.Access(1, 0x1040, false)
	out0 := d.Access(0, 0x1000, true)
	if len(out0.Invalidated) != 1 || out0.Invalidated[0] != 1 {
		t.Fatalf("write should invalidate CPU1, got %+v", out0)
	}
	out1 := d.Access(1, 0x1040, false)
	if out1.Class != FalseShare {
		t.Errorf("class = %v, want false-share", out1.Class)
	}
}

func TestTrueSharingAfterInvalidation(t *testing.T) {
	d := New(4, line)
	d.Access(1, 0x1000, false) // CPU1 reads word 0
	d.Access(0, 0x1000, true)  // CPU0 writes word 0, invalidating CPU1
	out := d.Access(1, 0x1000, false)
	if out.Class != TrueShare {
		t.Errorf("class = %v, want true-share", out.Class)
	}
}

func TestUpgradeOnWriteHitShared(t *testing.T) {
	d := New(4, line)
	d.Access(0, 0x1000, false)
	d.Access(1, 0x1000, false)
	out := d.Access(0, 0x1000, true)
	if out.Class != Hit || !out.Upgrade {
		t.Errorf("write hit on shared line: %+v, want hit+upgrade", out)
	}
	if len(out.Invalidated) != 1 || out.Invalidated[0] != 1 {
		t.Errorf("invalidated = %v, want [1]", out.Invalidated)
	}
}

func TestNoUpgradeOnExclusiveWriteHit(t *testing.T) {
	d := New(4, line)
	d.Access(0, 0x1000, true)
	out := d.Access(0, 0x1000, true)
	if out.Class != Hit || out.Upgrade {
		t.Errorf("exclusive write hit: %+v, want plain hit", out)
	}
}

func TestEvictionLeadsToReplacementMiss(t *testing.T) {
	d := New(4, line)
	d.Access(0, 0x1000, false)
	d.Evict(0, 0x1000)
	out := d.Access(0, 0x1000, false)
	if out.Class != Replacement {
		t.Errorf("class = %v, want replacement", out.Class)
	}
}

func TestEvictOfDirtyLineCleansIt(t *testing.T) {
	d := New(4, line)
	d.Access(0, 0x1000, true)
	d.Evict(0, 0x1000) // writeback to memory
	out := d.Access(1, 0x1000, false)
	if out.DirtyRemote {
		t.Error("line was written back; should come from memory")
	}
}

func TestReadDowngradesDirtyOwner(t *testing.T) {
	d := New(4, line)
	d.Access(0, 0x1000, true)
	d.Access(1, 0x1000, false) // downgrade CPU0 to shared-clean
	out := d.Access(2, 0x1000, false)
	if out.DirtyRemote {
		t.Error("second reader should be served from memory after downgrade")
	}
}

func TestWriteMissInvalidatesAllSharers(t *testing.T) {
	d := New(8, line)
	for cpu := 0; cpu < 4; cpu++ {
		d.Access(cpu, 0x2000, false)
	}
	out := d.Access(5, 0x2000, true)
	if len(out.Invalidated) != 4 {
		t.Errorf("invalidated %d CPUs, want 4", len(out.Invalidated))
	}
	if d.Holders(0x2000) != 1 {
		t.Errorf("holders = %d, want 1", d.Holders(0x2000))
	}
}

func TestEvictUnknownLineIsNoop(t *testing.T) {
	d := New(2, line)
	d.Evict(0, 0xdead000) // must not panic
	d.Access(0, 0x1000, false)
	d.Evict(1, 0x1000) // CPU1 doesn't hold it
	if d.Holders(0x1000) != 1 {
		t.Error("evict by non-holder changed ownership")
	}
}

func TestPingPong(t *testing.T) {
	// Two CPUs alternately writing the same word: every access after the
	// first should be a true-sharing miss with remote supply.
	d := New(2, line)
	d.Access(0, 0x3000, true)
	for i := 0; i < 10; i++ {
		cpu := (i + 1) % 2
		out := d.Access(cpu, 0x3000, true)
		if out.Class != TrueShare {
			t.Fatalf("iter %d: class = %v, want true-share", i, out.Class)
		}
		if !out.DirtyRemote {
			t.Fatalf("iter %d: expected dirty-remote supply", i)
		}
	}
}

// TestForgetReusesSlotFresh: a forgotten line's slot is reset in
// place, so the line and every new line start with no holders, writers
// or invalidated copies, while lines that stayed, including the forgotten
// line's neighbours in its index block, keep their state.
func TestForgetReusesSlotFresh(t *testing.T) {
	d := New(2, line)
	d.Access(0, 0x1000, true)
	d.Access(1, 0x1000, true) // CPU 0 loses 0x1000 to CPU 1's write
	d.Access(0, 0x2000, true)
	d.Access(0, 0x1000+line, true) // same index block as 0x1000
	d.Forget(0x1000)
	if d.Holders(0x1000) != 0 {
		t.Fatal("forgotten line still has holders")
	}
	if out := d.Access(1, 0x3000, false); out.Class != Cold || out.DirtyRemote {
		t.Errorf("new line: class %v dirty-remote %v, want cold clean", out.Class, out.DirtyRemote)
	}
	if out := d.Access(0, 0x3000, false); out.Class != Cold {
		t.Errorf("second reader of the new line: class %v, want cold", out.Class)
	}
	if out := d.Access(0, 0x1000, false); out.Class != Cold || out.DirtyRemote {
		t.Errorf("forgotten line re-read: class %v dirty-remote %v, want cold clean", out.Class, out.DirtyRemote)
	}
	if out := d.Access(1, 0x2000, false); out.Class != TrueShare || !out.DirtyRemote || out.Downgraded != 0 {
		t.Errorf("surviving line lost its state: %+v", out)
	}
	if out := d.Access(1, 0x1000+line, false); out.Class != TrueShare || out.Downgraded != 0 {
		t.Errorf("block neighbour of the forgotten line lost its state: %+v", out)
	}
}

// TestDirectoryMatchesOracle diffs the block-indexed directory against
// the per-line oracle under random Access, Evict, Forget and Holders
// calls over addresses that share, straddle and skip index blocks,
// including address 0. The CPU counts fill each mask width exactly
// (1, 8, 16, 32, 64) and overflow it by one (9, 17, 33), so every
// instantiation is diffed with its top bit in use. 4-B lines, which a
// machine file may give the LLC, and 8-B lines have one word; 256-B
// lines have 32, so a write to one of their upper 16 words spills the
// line's writers even when one CPU alone writes it.
func TestDirectoryMatchesOracle(t *testing.T) {
	for _, ncpu := range []int{1, 2, 5, 8, 9, 14, 15, 16, 17, 32, 33, 64} {
		for _, lineSize := range []int{4, 8, 16, 64, 128, 256} {
			d, ref := New(ncpu, lineSize), newOldDirectory(ncpu, lineSize)
			rng := rand.New(rand.NewSource(int64(ncpu*1000 + lineSize)))
			blockBytes := uint64(lineSize) << blockShift
			for step := 0; step < 20000; step++ {
				addr := uint64(rng.Intn(6))*blockBytes*uint64(1+rng.Intn(3)) + uint64(rng.Intn(int(blockBytes)))
				diffOp(t, d, ref, rng, addr, fmt.Sprintf("ncpu %d line %d step %d", ncpu, lineSize, step))
			}
		}
	}
}

// spillOp is one step of spillScript: kind 'r' or 'w' reads or writes
// word of line, 'e' evicts the line from cpu and 'f' forgets it. A
// step with a want then holds the line's writer encoding and the
// table's spill rows to it.
type spillOp struct {
	kind            byte
	cpu, line, word int
	want            *spillWant
}

// spillWant is what a step of spillScript leaves: whether the line is
// mixed, and how many spill rows are in use.
type spillWant struct {
	mixed bool
	rows  int
}

// spillScript returns the steps of TestSpilledLinesMatchOracle for ncpu
// CPUs and lines of the given words, with a, b and c the lowest,
// highest and middle CPU (some of them the same CPU on small machines).
// Line 1 is written by a, then by b, which spills it with a's words
// copied into its row, then by c; readers then miss on words the other
// CPUs wrote (true sharing) and on their own or unwritten words (false
// sharing or cold). Line 1 is forgotten, which frees its row, and line 3
// spills into the freed row, which must read as empty: c's first read
// of line 3, of word 5, which b wrote in line 1, is no true sharing.
// On 256-B lines a's write of word 20 of line 2 spills it although a is
// its only writer.
func spillScript(ncpu, words int) []spillOp {
	a, b, c := 0, ncpu-1, (ncpu-1)/2
	w := func(n int) int { return n % words }
	line1 := a != b || a != c // line 1 has a second writer
	line3 := a != b
	rows := 0
	if a != b {
		rows = 1
	}
	ops := []spillOp{
		{kind: 'w', cpu: a, line: 1, word: w(0), want: &spillWant{}},
		{kind: 'w', cpu: a, line: 1, word: w(3), want: &spillWant{}},
		{kind: 'r', cpu: b, line: 1, word: w(5)},
		{kind: 'w', cpu: b, line: 1, word: w(5), want: &spillWant{mixed: a != b, rows: rows}},
		{kind: 'r', cpu: a, line: 1, word: w(0)},
		{kind: 'r', cpu: a, line: 1, word: w(5)},
		{kind: 'w', cpu: c, line: 1, word: w(7), want: &spillWant{mixed: line1, rows: btoi(line1)}},
		{kind: 'r', cpu: a, line: 1, word: w(5)},
		{kind: 'r', cpu: b, line: 1, word: w(0)},
		{kind: 'r', cpu: b, line: 1, word: w(9)},
		{kind: 'e', cpu: a, line: 1},
		{kind: 'r', cpu: a, line: 1, word: w(7)},
		{kind: 'w', cpu: a, line: 1, word: w(3)},
		{kind: 'r', cpu: c, line: 1, word: w(3)},
		{kind: 'r', cpu: c, line: 1, word: w(11)},
		{kind: 'f', line: 1, want: &spillWant{}},
		{kind: 'r', cpu: b, line: 1, word: w(5)},
		{kind: 'w', cpu: a, line: 3, word: w(1)},
		{kind: 'w', cpu: b, line: 3, word: w(2), want: &spillWant{mixed: line3, rows: btoi(line3)}},
		{kind: 'r', cpu: c, line: 3, word: w(5)},
		{kind: 'w', cpu: b, line: 3, word: w(1)},
		{kind: 'r', cpu: c, line: 3, word: w(1)},
	}
	if words > 16 {
		ops = append(ops,
			spillOp{kind: 'w', cpu: a, line: 2, word: 20, want: &spillWant{mixed: true, rows: btoi(line3) + 1}},
			spillOp{kind: 'r', cpu: b, line: 2, word: 20},
			spillOp{kind: 'w', cpu: b, line: 2, word: 1},
			spillOp{kind: 'r', cpu: a, line: 2, word: 20},
			spillOp{kind: 'r', cpu: a, line: 2, word: 1},
			spillOp{kind: 'r', cpu: c, line: 2, word: 21},
		)
	}
	return ops
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writerState reports whether addr's line in d is mixed, and how many
// spill rows d's table has in use.
func writerState(d *Directory, addr uint64) spillWant {
	switch t := d.t.(type) {
	case *table[uint8]:
		return tableWriterState(t, addr)
	case *table[uint16]:
		return tableWriterState(t, addr)
	case *table[uint32]:
		return tableWriterState(t, addr)
	case *table[uint64]:
		return tableWriterState(t, addr)
	}
	panic(fmt.Sprintf("coherence: unknown table %T", d.t))
}

func tableWriterState[M mask](t *table[M], addr uint64) spillWant {
	got := spillWant{rows: len(t.rows)/t.words - len(t.freeRows)}
	if i, ok := t.slot(addr); ok {
		got.mixed = t.line(i).writer == mixed
	}
	return got
}

// TestSpilledLinesMatchOracle runs spillScript against the oracle at 1
// to 64 CPUs and at 64-, 128- and 256-B lines, diffing every outcome,
// and holds the steps that carry a want to the spill encoding: a line
// spills on its second writer or on a word past 15, never before, and
// Forget frees its row for the next line that spills.
func TestSpilledLinesMatchOracle(t *testing.T) {
	for _, ncpu := range []int{1, 2, 8, 9, 15, 16, 17, 64} {
		for _, lineSize := range []int{64, 128, 256} {
			d, ref := New(ncpu, lineSize), newOldDirectory(ncpu, lineSize)
			classes := map[Class]bool{}
			for step, op := range spillScript(ncpu, lineSize/wordSize) {
				// Lines sit a block apart, so each takes a slot block.
				addr := uint64(op.line)*uint64(lineSize)<<blockShift + uint64(op.word*wordSize)
				at := fmt.Sprintf("ncpu %d line %d step %d (%c cpu %d line %d word %d)", ncpu, lineSize, step, op.kind, op.cpu, op.line, op.word)
				switch op.kind {
				case 'r', 'w':
					write := op.kind == 'w'
					got, want := d.Access(op.cpu, addr, write), ref.Access(op.cpu, addr, write)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Access = %+v, want %+v", at, got, want)
					}
					classes[got.Class] = true
				case 'e':
					d.Evict(op.cpu, addr)
					ref.Evict(op.cpu, addr)
				case 'f':
					d.Forget(addr)
					ref.Forget(addr)
				}
				if op.want != nil {
					if got := writerState(d, addr); got != *op.want {
						t.Fatalf("%s: line mixed %v with %d spill rows in use, want %v with %d", at, got.mixed, got.rows, op.want.mixed, op.want.rows)
					}
				}
			}
			if ncpu > 2 && (!classes[TrueShare] || !classes[FalseShare]) {
				t.Fatalf("ncpu %d line %d: the script's outcomes were %v, want true and false sharing among them", ncpu, lineSize, classes)
			}
		}
	}
}

// TestLineStateBytes: a line's state, its word writers included while
// it has one writer, takes 8 B on a machine of up to 8 nodes, 10 B up
// to 16, 16 B up to 32 and 32 B up to 64.
func TestLineStateBytes(t *testing.T) {
	for _, c := range []struct {
		masks     int
		got, want uintptr
	}{
		{8, unsafe.Sizeof(lineState[uint8]{}), 8},
		{16, unsafe.Sizeof(lineState[uint16]{}), 10},
		{32, unsafe.Sizeof(lineState[uint32]{}), 16},
		{64, unsafe.Sizeof(lineState[uint64]{}), 32},
	} {
		if c.got != c.want {
			t.Errorf("%d-bit masks: line state of %d B, want %d", c.masks, c.got, c.want)
		}
	}
}

// maskBits returns the width of d's node masks.
func maskBits(d *Directory) int {
	switch d.t.(type) {
	case *table[uint8]:
		return 8
	case *table[uint16]:
		return 16
	case *table[uint32]:
		return 32
	case *table[uint64]:
		return 64
	}
	panic(fmt.Sprintf("coherence: unknown table %T", d.t))
}

func TestNewPanicsOnTooManyCPUs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 65 CPUs")
		}
	}()
	New(65, line)
}

// TestNewPicksNarrowestWidth: New gives every CPU count from 1 to 64
// the narrowest mask width that holds it, never a narrower one.
func TestNewPicksNarrowestWidth(t *testing.T) {
	for _, c := range []struct{ ncpu, bits int }{
		{1, 8}, {8, 8}, {9, 16}, {16, 16}, {17, 32}, {32, 32}, {33, 64}, {64, 64},
	} {
		if got := maskBits(New(c.ncpu, line)); got != c.bits {
			t.Errorf("New(%d): %d-bit masks, want %d", c.ncpu, got, c.bits)
		}
	}
	for ncpu := 1; ncpu <= 64; ncpu++ {
		if b := maskBits(New(ncpu, line)); b < ncpu || (b > 8 && b/2 >= ncpu) {
			t.Errorf("New(%d): %d-bit masks, not the narrowest that holds %d CPUs", ncpu, b, ncpu)
		}
	}
}

func TestDowngradeReportsDirtyOwner(t *testing.T) {
	d := New(4, line)
	d.Access(2, 0x1000, true) // CPU2 dirties the line
	out := d.Access(0, 0x1000, false)
	if !out.DirtyRemote {
		t.Fatal("read of dirty remote line should be supplied by owner")
	}
	// The flush-to-memory that serves the read leaves the owner's cached
	// copy clean; the simulator must be told which CPU to clean or the
	// line's eventual eviction double-charges a writeback.
	if out.Downgraded != 2 {
		t.Errorf("Downgraded = %d, want 2", out.Downgraded)
	}
	// A second read sees a clean line: no downgrade.
	if out := d.Access(1, 0x1000, false); out.Downgraded != -1 {
		t.Errorf("clean supply Downgraded = %d, want -1", out.Downgraded)
	}
}

func TestNoDowngradeOnWrite(t *testing.T) {
	d := New(2, line)
	d.Access(0, 0x2000, true)
	// A write takes exclusive ownership via invalidation, not a
	// downgrade: the previous owner's line is gone entirely.
	out := d.Access(1, 0x2000, true)
	if out.Downgraded != -1 {
		t.Errorf("write Downgraded = %d, want -1", out.Downgraded)
	}
	if len(out.Invalidated) != 1 || out.Invalidated[0] != 0 {
		t.Errorf("expected CPU0 invalidated, got %v", out.Invalidated)
	}
	// Cold accesses also report no downgrade (zero-value trap guard).
	if out := d.Access(0, 0x9000, false); out.Downgraded != -1 {
		t.Errorf("cold Downgraded = %d, want -1", out.Downgraded)
	}
}
