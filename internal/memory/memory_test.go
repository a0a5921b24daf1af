package memory

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestPreferredColorHonored(t *testing.T) {
	a := New(64, 8)
	f, honored, err := a.Alloc(3, nil)
	if err != nil || !honored {
		t.Fatalf("Alloc = (%d,%v,%v)", f, honored, err)
	}
	if a.ColorOf(f) != 3 {
		t.Errorf("color = %d, want 3", a.ColorOf(f))
	}
	if a.Honored != 1 || a.Fallback != 0 {
		t.Errorf("counters honored=%d fallback=%d", a.Honored, a.Fallback)
	}
}

func TestFallbackOnExhaustedColor(t *testing.T) {
	a := New(16, 8) // 2 frames per color
	a.Alloc(0, nil)
	a.Alloc(0, nil)
	f, honored, err := a.Alloc(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if honored {
		t.Error("exhausted color reported honored")
	}
	if a.ColorOf(f) == 0 {
		t.Error("fallback returned a frame of the exhausted color")
	}
	if a.Fallback != 1 {
		t.Errorf("Fallback = %d, want 1", a.Fallback)
	}
}

func TestOutOfMemory(t *testing.T) {
	a := New(4, 2)
	for i := 0; i < 4; i++ {
		if _, _, err := a.Alloc(0, nil); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, _, err := a.Alloc(0, nil); err != ErrOutOfMemory {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestReleaseRecycles(t *testing.T) {
	a := New(8, 8) // one frame per color
	f, _, _ := a.Alloc(5, nil)
	a.Release(f)
	f2, honored, err := a.Alloc(5, nil)
	if err != nil || !honored || f2 != f {
		t.Errorf("recycled alloc = (%d,%v,%v), want (%d,true,nil)", f2, honored, err, f)
	}
}

func TestNegativeAndLargeColorWrap(t *testing.T) {
	a := New(64, 8)
	f, honored, _ := a.Alloc(11, nil) // 11 % 8 = 3
	if !honored || a.ColorOf(f) != 3 {
		t.Errorf("wrapped color = %d honored=%v, want 3,true", a.ColorOf(f), honored)
	}
	f2, honored2, _ := a.Alloc(-1, nil) // wraps to 7
	if !honored2 || a.ColorOf(f2) != 7 {
		t.Errorf("negative color = %d honored=%v, want 7,true", a.ColorOf(f2), honored2)
	}
}

func TestFramesAreUniqueProperty(t *testing.T) {
	f := func(prefs []uint8) bool {
		a := New(128, 16)
		seen := map[uint64]bool{}
		for _, p := range prefs {
			fr, _, err := a.Alloc(int(p), nil)
			if err != nil {
				return a.FreeFrames() == 0
			}
			if seen[fr] {
				return false
			}
			seen[fr] = true
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestColorDistributionEven(t *testing.T) {
	a := New(64, 8)
	for c := 0; c < 8; c++ {
		if got := a.FreeOfColor(c); got != 8 {
			t.Errorf("color %d has %d free frames, want 8", c, got)
		}
	}
}

func TestFreeFramesAccounting(t *testing.T) {
	a := New(32, 4)
	if a.FreeFrames() != 32 {
		t.Fatalf("FreeFrames = %d, want 32", a.FreeFrames())
	}
	f, _, _ := a.Alloc(1, nil)
	if a.FreeFrames() != 31 {
		t.Errorf("FreeFrames after alloc = %d, want 31", a.FreeFrames())
	}
	a.Release(f)
	if a.FreeFrames() != 32 {
		t.Errorf("FreeFrames after release = %d, want 32", a.FreeFrames())
	}
}

// Satellite: allocator-pressure property. Fallback allocation must pick
// the richest pool with ties broken toward the lowest color, and
// honored + fallback must always equal total allocations.
func TestFallbackDeterministicProperty(t *testing.T) {
	f := func(prefs []uint8) bool {
		a := New(96, 8)
		var total uint64
		for _, p := range prefs {
			want := ((int(p) % 8) + 8) % 8
			// Predict the fallback pool before allocating: richest,
			// lowest color on ties.
			expect, expectLen := -1, 0
			for c, n := range a.FreeByColor() {
				if n > expectLen {
					expect, expectLen = c, n
				}
			}
			fr, honored, err := a.Alloc(int(p), nil)
			if err != nil {
				return a.FreeFrames() == 0 && a.Honored+a.Fallback == total
			}
			total++
			if honored {
				if a.ColorOf(fr) != want {
					return false
				}
			} else if a.ColorOf(fr) != expect {
				return false
			}
			if a.Honored+a.Fallback != total {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Two identical allocation sequences must produce identical frame
// sequences — the allocator itself is part of the determinism contract.
func TestFallbackReplayIdentical(t *testing.T) {
	run := func() []uint64 {
		a := New(64, 8)
		var got []uint64
		for i := 0; i < 64; i++ {
			fr, _, err := a.Alloc(i%3, nil) // starves colors 3..7 into fallback
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fr)
		}
		return got
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("replay diverged at %d: %d vs %d", i, x[i], y[i])
		}
	}
}

func TestFirstTouchColorTracksLowestFrame(t *testing.T) {
	a := New(32, 4)
	// Lowest free frame is 0 -> color 0; allocate it and the next
	// lowest (1 -> color 1) becomes the first-touch frame.
	for want := 0; want < 8; want++ {
		if got := a.FirstTouchColor(nil); got != want%4 {
			t.Fatalf("FirstTouchColor = %d, want %d", got, want%4)
		}
		fr, honored, err := a.Alloc(a.FirstTouchColor(nil), nil)
		if err != nil || !honored {
			t.Fatal(err)
		}
		if fr != uint64(want) {
			t.Fatalf("first-touch alloc got frame %d, want %d", fr, want)
		}
	}
}

// Satellite property: NormColor is the one sanctioned normalization and
// Alloc, ColorOf and FreeOfColor must agree with it for any color,
// negatives included.
func TestNormColorConsistencyProperty(t *testing.T) {
	f := func(c int16) bool {
		const n = 8
		want := ((int(c) % n) + n) % n
		if NormColor(int(c), n) != want {
			return false
		}
		a := New(64, n)
		before := a.FreeOfColor(int(c))
		fr, honored, err := a.Alloc(int(c), nil)
		if err != nil || !honored {
			return false
		}
		// The three color views agree: the frame's color, the pool that
		// shrank, and the normalized preference are the same color.
		return a.ColorOf(fr) == want && a.FreeOfColor(int(c)) == before-1
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPartitionDeterministicBlocks(t *testing.T) {
	// Three domains over 8 colors: blocks 3/3/2, lower domains get the
	// extra color, contiguous and ascending.
	got, err := Partition(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7}}; !reflect.DeepEqual(got, want) {
		t.Errorf("Partition(8, 3) = %v, want %v", got, want)
	}
	if got, _ := Partition(8, 1); !reflect.DeepEqual(got, [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}) {
		t.Errorf("Partition(8, 1) = %v, want every color", got)
	}
}

func TestPartitionTooManyDomains(t *testing.T) {
	if _, err := Partition(2, 3); err == nil || err.Error() != "memory: 3 isolation domains exceed 2 colors" {
		t.Errorf("3 domains over 2 colors: err = %v", err)
	}
	if _, err := Partition(2, 0); err == nil {
		t.Error("a partition of no domains accepted")
	}
}

// Every allocation from a color subset — preferred, folded hint, or
// pressure fallback — must land inside the subset, and a subset that
// runs dry fails with ErrOutOfMemory rather than borrow a frame of
// another color while other pools still hold frames.
func TestPartitionClampNeverEscapes(t *testing.T) {
	a := New(128, 8)
	parts, err := Partition(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Global-space preferences (two processes asking for the same
	// colors) fold into disjoint subsets.
	for i := 0; i < 64; i++ {
		for _, colors := range parts {
			f, _, err := a.Alloc(i, colors) // also drives fallback once pools dry up
			if err != nil {
				t.Fatalf("subset %v pref %d: %v", colors, i, err)
			}
			if !slices.Contains(colors, a.ColorOf(f)) {
				t.Fatalf("subset %v got color %d", colors, a.ColorOf(f))
			}
		}
	}
	// Identical preferences from the two subsets map to different
	// colors — the collision fix in one assertion.
	a = New(128, 8)
	f1, _, _ := a.Alloc(0, parts[0])
	f2, _, _ := a.Alloc(0, parts[1])
	if a.ColorOf(f1) == a.ColorOf(f2) {
		t.Errorf("same preference, same color (%d) across subsets", a.ColorOf(f1))
	}
	// Subset 0 ({0,1,2,3}, 16 frames each) runs dry while subset 1's
	// 64 frames stay free.
	for i := 0; i < 63; i++ {
		if _, _, err := a.Alloc(i, parts[0]); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, _, err := a.Alloc(0, parts[0]); err != ErrOutOfMemory {
		t.Fatalf("alloc from a drained subset: err = %v, want ErrOutOfMemory", err)
	}
	if got := a.FreeFrames(); got != 63 {
		t.Errorf("FreeFrames = %d after the subset ran dry, want 63 (a frame escaped the subset)", got)
	}
}

// FirstTouchColor must predict a color the subset's own allocation can
// honor: subset-local with a subset, the global free-list head with nil.
func TestFirstTouchColorForPartitionLocal(t *testing.T) {
	a := New(32, 4)
	if got := a.FirstTouchColor(nil); got != 0 {
		t.Fatalf("global first-touch color = %d, want 0", got)
	}
	colors := []int{2, 3}
	// The lowest free frame of colors {2,3} is frame 2.
	if got := a.FirstTouchColor(colors); got != 2 {
		t.Errorf("subset first-touch color = %d, want 2", got)
	}
	// Allocating the predicted color must honor it every time.
	for i := 0; i < 16; i++ {
		c := a.FirstTouchColor(colors)
		f, honored, err := a.Alloc(c, colors)
		if err != nil {
			t.Fatal(err)
		}
		if !honored || a.ColorOf(f) != c {
			t.Fatalf("first-touch alloc %d: color %d honored=%v, want %d", i, a.ColorOf(f), honored, c)
		}
	}
}

func TestNewWithColorOf(t *testing.T) {
	// A toy hash: swap the low two color bits.
	hash := func(f uint64) int { return int((f&1)<<1|(f>>1)&1) | int(f&^3)%4 }
	colorOf := func(f uint64) int { return hash(f) % 4 }
	a := NewWithColorOf(64, 4, colorOf)
	for c := 0; c < 4; c++ {
		if got := a.FreeOfColor(c); got != 16 {
			t.Fatalf("color %d: %d free frames, want 16", c, got)
		}
	}
	f, honored, err := a.Alloc(2, nil)
	if err != nil || !honored {
		t.Fatalf("Alloc(2) = %v honored=%v", err, honored)
	}
	if got := a.ColorOf(f); got != 2 {
		t.Fatalf("allocated frame %d has color %d, want 2", f, got)
	}
	// Release must return the frame to the hash-selected pool.
	before := a.FreeOfColor(2)
	a.Release(f)
	if got := a.FreeOfColor(2); got != before+1 {
		t.Fatalf("release went to the wrong pool: color 2 has %d free, want %d", got, before+1)
	}
}
