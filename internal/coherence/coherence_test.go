package coherence

import (
	"fmt"
	"math/rand"
	"testing"
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
// instantiation is diffed with its top bit in use; 14, 15 and 16 CPUs
// straddle the writer width, with 15 the largest that takes nibbles.
// 8-B lines have one word, so two slots' nibbles share a byte.
func TestDirectoryMatchesOracle(t *testing.T) {
	for _, ncpu := range []int{1, 2, 5, 8, 9, 14, 15, 16, 17, 32, 33, 64} {
		for _, lineSize := range []int{8, 16, 64, 128} {
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

// writerBits returns the width of d's word-writer entries.
func writerBits(d *Directory) int {
	switch t := d.t.(type) {
	case *table[uint8]:
		return 1 << t.writerShift
	case *table[uint16]:
		return 1 << t.writerShift
	case *table[uint32]:
		return 1 << t.writerShift
	case *table[uint64]:
		return 1 << t.writerShift
	}
	panic(fmt.Sprintf("coherence: unknown table %T", d.t))
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
// the narrowest mask width that holds it, never a narrower one, and
// 4-bit word writers up to 15 CPUs, where every CPU number plus one
// (0 means "never written") fits in a nibble, 8-bit writers from 16.
func TestNewPicksNarrowestWidth(t *testing.T) {
	for _, c := range []struct{ ncpu, bits int }{
		{1, 8}, {8, 8}, {9, 16}, {16, 16}, {17, 32}, {32, 32}, {33, 64}, {64, 64},
	} {
		if got := maskBits(New(c.ncpu, line)); got != c.bits {
			t.Errorf("New(%d): %d-bit masks, want %d", c.ncpu, got, c.bits)
		}
	}
	for ncpu := 1; ncpu <= 64; ncpu++ {
		d := New(ncpu, line)
		if b := maskBits(d); b < ncpu || (b > 8 && b/2 >= ncpu) {
			t.Errorf("New(%d): %d-bit masks, not the narrowest that holds %d CPUs", ncpu, b, ncpu)
		}
		want := 8
		if ncpu <= 15 {
			want = 4
		}
		if got := writerBits(d); got != want {
			t.Errorf("New(%d): %d-bit word writers, want %d", ncpu, got, want)
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
