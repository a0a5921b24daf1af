package vm

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/memory"
)

const pageSize = 4096

func space(policy Policy, frames, colors int) *AddressSpace {
	return NewAddressSpace(pageSize, memory.New(frames, colors), policy)
}

func TestPageColoringConsecutivePages(t *testing.T) {
	as := space(PageColoring{Colors: 8}, 64, 8)
	for vpn := uint64(0); vpn < 16; vpn++ {
		_, faulted, err := as.Translate(vpn*pageSize, 0)
		if err != nil || !faulted {
			t.Fatalf("vpn %d: faulted=%v err=%v", vpn, faulted, err)
		}
		color, _ := as.ColorOf(vpn)
		if color != int(vpn%8) {
			t.Errorf("vpn %d color = %d, want %d", vpn, color, vpn%8)
		}
	}
}

func TestPageColoringConflictSpacing(t *testing.T) {
	// §2.1: under page coloring, conflicts occur only between pages whose
	// virtual addresses differ by a multiple of the cache span.
	p := PageColoring{Colors: 16}
	for vpn := uint64(0); vpn < 100; vpn++ {
		if p.PreferredColor(vpn, 0) != p.PreferredColor(vpn+16, 0) {
			t.Errorf("vpn %d and vpn+16 should share a color", vpn)
		}
	}
}

func TestBinHoppingCyclesInFaultOrder(t *testing.T) {
	as := space(&BinHopping{Colors: 4}, 64, 4)
	// Fault pages in a scattered order; colors must follow fault order,
	// not address order.
	order := []uint64{10, 3, 77, 4, 1}
	for i, vpn := range order {
		as.Translate(vpn*pageSize, 0)
		color, _ := as.ColorOf(vpn)
		if color != i%4 {
			t.Errorf("fault #%d (vpn %d) color = %d, want %d", i, vpn, color, i%4)
		}
	}
}

func TestTranslateIsStable(t *testing.T) {
	as := space(PageColoring{Colors: 8}, 64, 8)
	p1, faulted1, _ := as.Translate(5*pageSize+100, 0)
	p2, faulted2, _ := as.Translate(5*pageSize+200, 1)
	if !faulted1 || faulted2 {
		t.Errorf("fault flags = %v,%v; want true,false", faulted1, faulted2)
	}
	if p1-100 != p2-200 {
		t.Error("same page translated to different frames")
	}
	if as.Faults != 1 {
		t.Errorf("Faults = %d, want 1", as.Faults)
	}
}

func TestOffsetPreserved(t *testing.T) {
	as := space(PageColoring{Colors: 8}, 64, 8)
	f := func(vaddr uint64) bool {
		vaddr %= 64 * pageSize
		paddr, _, err := as.Translate(vaddr, 0)
		return err == nil && paddr%pageSize == vaddr%pageSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdviseOverridesPolicy(t *testing.T) {
	as := space(PageColoring{Colors: 8}, 64, 8)
	as.Advise(map[uint64]int{3: 7}) // vpn 3 would naturally get color 3
	as.Translate(3*pageSize, 0)
	color, _ := as.ColorOf(3)
	if color != 7 {
		t.Errorf("hinted color = %d, want 7", color)
	}
	if as.HintedFaults != 1 || as.HonoredHints != 1 {
		t.Errorf("hint counters = %d/%d, want 1/1", as.HintedFaults, as.HonoredHints)
	}
}

func TestHintIsOnlyAHint(t *testing.T) {
	// Exhaust color 2, then hint for it: the fault must still succeed
	// (memory pressure fallback) but the hint goes unhonored (§5 step 3).
	as := space(PageColoring{Colors: 4}, 8, 4) // 2 frames per color
	as.Advise(map[uint64]int{100: 2, 101: 2, 102: 2})
	for _, vpn := range []uint64{100, 101, 102} {
		if _, _, err := as.Translate(vpn*pageSize, 0); err != nil {
			t.Fatal(err)
		}
	}
	c100, _ := as.ColorOf(100)
	c101, _ := as.ColorOf(101)
	c102, _ := as.ColorOf(102)
	if c100 != 2 || c101 != 2 {
		t.Errorf("first two hinted pages: colors %d,%d, want 2,2", c100, c101)
	}
	if c102 == 2 {
		t.Error("third hinted page got color 2, pool should be empty")
	}
	if as.HonoredHints != 2 {
		t.Errorf("HonoredHints = %d, want 2", as.HonoredHints)
	}
}

func TestHintsDoNotAffectMappedPages(t *testing.T) {
	as := space(PageColoring{Colors: 8}, 64, 8)
	as.Translate(0, 0)
	before, _ := as.ColorOf(0)
	as.Advise(map[uint64]int{0: (before + 1) % 8})
	after, _ := as.ColorOf(0)
	if before != after {
		t.Error("Advise recolored an already-mapped page")
	}
}

func TestTouchInOrderEmulatesColoringOnBinHopping(t *testing.T) {
	// The paper's Digital UNIX trick: with bin hopping, touching pages in
	// ascending VPN order yields page coloring's assignment.
	as := space(&BinHopping{Colors: 8}, 64, 8)
	vpns := make([]uint64, 16)
	for i := range vpns {
		vpns[i] = uint64(i)
	}
	faults, err := as.TouchInOrder(vpns, 0)
	if err != nil || faults != 16 {
		t.Fatalf("TouchInOrder = (%d,%v)", faults, err)
	}
	for vpn := uint64(0); vpn < 16; vpn++ {
		color, _ := as.ColorOf(vpn)
		if color != int(vpn%8) {
			t.Errorf("vpn %d color = %d, want %d", vpn, color, vpn%8)
		}
	}
	// Re-touching faults nothing.
	faults, _ = as.TouchInOrder(vpns, 0)
	if faults != 0 {
		t.Errorf("second TouchInOrder faulted %d pages, want 0", faults)
	}
}

func TestOutOfMemorySurfaceError(t *testing.T) {
	as := space(PageColoring{Colors: 2}, 2, 2)
	as.Translate(0, 0)
	as.Translate(pageSize, 0)
	if _, _, err := as.Translate(2*pageSize, 0); err == nil {
		t.Error("expected out-of-memory error")
	}
}

func TestColorOfUnmapped(t *testing.T) {
	as := space(PageColoring{Colors: 8}, 64, 8)
	if _, ok := as.ColorOf(42); ok {
		t.Error("ColorOf reported a color for an unmapped page")
	}
}

func TestMappedPagesCount(t *testing.T) {
	as := space(PageColoring{Colors: 8}, 64, 8)
	for vpn := uint64(0); vpn < 10; vpn++ {
		as.Touch(vpn, 0)
	}
	if as.MappedPages() != 10 {
		t.Errorf("MappedPages = %d, want 10", as.MappedPages())
	}
}

func TestPolicyNames(t *testing.T) {
	if (PageColoring{}).Name() != "page-coloring" {
		t.Error("PageColoring name")
	}
	if (&BinHopping{}).Name() != "bin-hopping" {
		t.Error("BinHopping name")
	}
}

// Per-process conservation: several address spaces share one allocator,
// and each one's mapped pages are exactly the frames it holds, across
// recolor churn (alloc new + release old) and a process exit. Releasing
// one space's frames returns exactly those frames, leaves the others'
// mappings alone and never releases a frame twice.
func TestOwnershipConservation(t *testing.T) {
	alloc := memory.New(128, 8)
	var spaces []*AddressSpace
	for pid := 1; pid <= 3; pid++ {
		as := NewAddressSpaceProc(pid, pageSize, alloc, PageColoring{Colors: 8})
		for vpn := uint64(0); vpn < uint64(10+pid); vpn++ {
			if _, err := as.Touch(vpn, 0); err != nil {
				t.Fatal(err)
			}
		}
		spaces = append(spaces, as)
	}
	held := func() int {
		n := 0
		for _, as := range spaces {
			n += as.MappedPages()
		}
		return n
	}
	if alloc.FreeFrames()+held() != 128 {
		t.Fatalf("free %d + mapped %d != 128", alloc.FreeFrames(), held())
	}
	// Recolor churn on pid 2: move each page to the next color.
	for vpn := uint64(0); vpn < 12; vpn++ {
		c, _ := spaces[1].ColorOf(vpn)
		if err := spaces[1].Recolor(vpn, c+1); err != nil {
			t.Fatal(err)
		}
		if alloc.FreeFrames()+held() != 128 {
			t.Fatalf("recolor of vpn %d: free %d + mapped %d != 128", vpn, alloc.FreeFrames(), held())
		}
	}
	free := alloc.FreeFrames()
	spaces[1].ReleaseFrames()
	if got := alloc.FreeFrames(); got != free+12 {
		t.Fatalf("FreeFrames after exit = %d, want %d (a frame released twice or not at all)", got, free+12)
	}
	// The other spaces still translate to the frames they held.
	for _, as := range []*AddressSpace{spaces[0], spaces[2]} {
		for vpn := uint64(0); vpn < uint64(as.MappedPages()); vpn++ {
			pa, _ := as.TranslateNoFault(vpn * pageSize)
			if back, ok := as.ReverseVAddr(pa); !ok || back != vpn*pageSize {
				t.Fatalf("pid %d vpn %d: reverse map lost its frame", as.pid, vpn)
			}
		}
	}
	if alloc.FreeFrames()+spaces[0].MappedPages()+spaces[2].MappedPages() != 128 {
		t.Errorf("pool leak: free %d + mapped %d != 128", alloc.FreeFrames(), spaces[0].MappedPages()+spaces[2].MappedPages())
	}
}

// A process's frames are released highest first, so the next process
// faults them back lowest first: reuse is deterministic and ascending.
func TestReleaseFramesReuseAscending(t *testing.T) {
	alloc := memory.New(64, 8)
	first := NewAddressSpaceProc(1, pageSize, alloc, PageColoring{Colors: 8})
	var frames []uint64
	for vpn := uint64(0); vpn < 9; vpn++ {
		// Color 8-vpn: the frames come out in no address order.
		first.Advise(map[uint64]int{vpn: 8 - int(vpn)})
		pa, _, err := first.Translate(vpn*pageSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, pa/pageSize)
	}
	first.ReleaseFrames()
	slices.Sort(frames)
	next := NewAddressSpaceProc(2, pageSize, alloc, PageColoring{Colors: 8})
	var got []uint64
	for vpn := uint64(0); vpn < 9; vpn++ {
		c := alloc.ColorOf(frames[vpn])
		next.Advise(map[uint64]int{vpn: c})
		pa, _, err := next.Translate(vpn*pageSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pa/pageSize)
	}
	if !slices.Equal(got, frames) {
		t.Errorf("frames faulted back after release = %v, want the released frames ascending %v", got, frames)
	}
}

// A confined space that runs out of its partition gets the typed
// partition error (ErrOutOfMemory family), naming its pid, domain and
// colors, and never borrows a foreign frame, even while the other
// partition still has plenty.
func TestPartitionExhaustionTyped(t *testing.T) {
	alloc := memory.New(16, 4) // 4 frames per color
	parts, err := memory.Partition(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	one := NewAddressSpaceProc(1, pageSize, alloc, PageColoring{Colors: 4})
	one.Confine(1, parts[0]) // colors {0,1}: 8 frames
	two := NewAddressSpaceProc(2, pageSize, alloc, PageColoring{Colors: 4})
	two.Confine(2, parts[1])
	for vpn := uint64(0); vpn < 8; vpn++ {
		if _, err := one.Touch(vpn, 0); err != nil {
			t.Fatalf("fault %d: %v", vpn, err)
		}
		if c, _ := one.ColorOf(vpn); c > 1 {
			t.Fatalf("vpn %d got color %d outside partition {0,1}", vpn, c)
		}
	}
	_, err = one.Touch(8, 0)
	if err == nil {
		t.Fatal("9th fault in an 8-frame partition succeeded")
	}
	var pe *memory.PartitionExhaustedError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *memory.PartitionExhaustedError", err, err)
	}
	if pe.Pid != 1 || pe.Domain != 1 {
		t.Errorf("error pid/domain = %d/%d, want 1/1", pe.Pid, pe.Domain)
	}
	if want := "vm: fault on vpn 8: memory: isolation domain 1 (pid 1) exhausted its color partition [0 1]"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	if !errors.Is(err, memory.ErrOutOfMemory) {
		t.Error("PartitionExhaustedError does not unwrap to ErrOutOfMemory")
	}
	// Domain 2's frames are untouched: it can still fault in all 8.
	for vpn := uint64(0); vpn < 8; vpn++ {
		if _, err := two.Touch(vpn, 0); err != nil {
			t.Fatalf("domain 2 fault %d: %v", vpn, err)
		}
	}
}
