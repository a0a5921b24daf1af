package vm

import (
	"fmt"

	"repro/internal/flat"
	"repro/internal/memory"
)

// Policy chooses a preferred page color at fault time. Implementations
// must be deterministic given the fault sequence they observe; the
// bin-hopping "race" between concurrently faulting CPUs is reproduced by
// the simulator's event interleaving, which determines fault order.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// PreferredColor returns the color to request for vpn faulted by cpu.
	PreferredColor(vpn uint64, cpu int) int
}

// PageColoring maps consecutive virtual pages to consecutive colors, so
// conflicts occur only between pages whose virtual addresses differ by a
// multiple of the cache-set span (IRIX, Windows NT).
type PageColoring struct {
	Colors int
}

// Name implements Policy.
func (PageColoring) Name() string { return "page-coloring" }

// PreferredColor implements Policy.
func (p PageColoring) PreferredColor(vpn uint64, _ int) int {
	return int(vpn % uint64(p.Colors))
}

// FirstTouch models the unmodified-OS baseline the paper compares
// against (§2): no color preference at all — the faulting page gets
// whatever frame heads the free list. The policy asks the allocator
// which color a sequential free list would serve next, so the
// preference is always satisfiable and placement is entirely driven by
// allocation order and memory pressure, including frames freed by
// other processes. Pid scopes the prediction to the owning process's
// color partition under isolation domains; pid 0 (the single-process
// legacy owner) on an unpartitioned allocator degenerates to the global
// free-list head.
type FirstTouch struct {
	Alloc *memory.Allocator
	Pid   int
}

// Name implements Policy.
func (FirstTouch) Name() string { return "first-touch" }

// PreferredColor implements Policy.
func (p FirstTouch) PreferredColor(uint64, int) int { return p.Alloc.FirstTouchColorFor(p.Pid) }

// BinHopping cycles through colors in the order page faults occur,
// exploiting temporal locality (Digital UNIX). The single shared counter
// is what makes the policy non-deterministic on a real multiprocessor:
// concurrent faults race for the next bin. Here fault order is the
// simulator's deterministic event order, which plays the same role.
type BinHopping struct {
	Colors int
	next   int
}

// Name implements Policy.
func (*BinHopping) Name() string { return "bin-hopping" }

// PreferredColor implements Policy.
func (b *BinHopping) PreferredColor(uint64, int) int {
	c := b.next
	b.next = (b.next + 1) % b.Colors
	return c
}

// AddressSpace is one application's virtual address space: a page table
// filled lazily by page faults, a mapping policy, and an optional hint
// table installed through the Advise call (the paper's single-system-call
// interface, §5.3).
type AddressSpace struct {
	pid       int // owning process id (0 for single-process machines)
	pageSize  uint64
	pageShift uint   // log2(pageSize); page size is a validated power of two
	pageMask  uint64 // pageSize - 1
	alloc     *memory.Allocator
	policy    Policy

	pages  flat.Map       // vpn -> frame
	frames flat.Map       // frame -> vpn (reverse map for cache invalidation)
	hints  map[uint64]int // vpn -> preferred color
	occ    []int          // mapped pages per color (recoloring heuristics)

	// Statistics.
	Faults       uint64 // total page faults taken
	HintedFaults uint64 // faults whose vpn had a CDPC hint
	HonoredHints uint64 // hinted faults that got the hinted color

	// OnFault, when non-nil, observes every serviced page fault: the
	// owning process id, the faulting vpn and cpu, the granted frame's
	// color, and whether the fault was hinted and the hint honored. The
	// simulator's observability layer hooks it; the callback must not
	// mutate the address space.
	OnFault func(pid int, vpn uint64, cpu, color int, hinted, honored bool)
}

// NewAddressSpace creates an empty address space backed by alloc, owned
// by process 0 (the single-process legacy owner).
func NewAddressSpace(pageSize int, alloc *memory.Allocator, policy Policy) *AddressSpace {
	return NewAddressSpaceProc(0, pageSize, alloc, policy)
}

// NewAddressSpaceProc creates an empty address space owned by process
// pid. Every frame the space faults in is charged to pid in the
// allocator's ownership accounting, so process exit can return exactly
// the frames the process held.
func NewAddressSpaceProc(pid, pageSize int, alloc *memory.Allocator, policy Policy) *AddressSpace {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("vm: bad page size %d", pageSize))
	}
	shift := uint(0)
	for 1<<shift < pageSize {
		shift++
	}
	return &AddressSpace{
		pid:       pid,
		pageSize:  uint64(pageSize),
		pageShift: shift,
		pageMask:  uint64(pageSize - 1),
		alloc:     alloc,
		policy:    policy,
		hints:     make(map[uint64]int),
		occ:       make([]int, alloc.NumColors()),
	}
}

// PageSize returns the page size in bytes.
func (as *AddressSpace) PageSize() int { return int(as.pageSize) }

// Pid returns the owning process id.
func (as *AddressSpace) Pid() int { return as.pid }

// PolicyName returns the active mapping policy's name.
func (as *AddressSpace) PolicyName() string { return as.policy.Name() }

// VPN returns the virtual page number of vaddr.
func (as *AddressSpace) VPN(vaddr uint64) uint64 { return vaddr >> as.pageShift }

// Advise installs preferred colors for a set of virtual pages. It mirrors
// the paper's madvise extension: hints are suggestions consulted at fault
// time; pages already mapped are unaffected.
func (as *AddressSpace) Advise(hints map[uint64]int) {
	for vpn, color := range hints {
		as.hints[vpn] = color
	}
}

// Translate returns the physical address for vaddr, taking a page fault
// (and allocating a frame) if the page is unmapped. faulted reports
// whether a fault occurred, so the caller can charge kernel time.
func (as *AddressSpace) Translate(vaddr uint64, cpu int) (paddr uint64, faulted bool, err error) {
	vpn := vaddr >> as.pageShift
	frame, ok := as.pages.Get(vpn)
	if !ok {
		frame, err = as.fault(vpn, cpu)
		if err != nil {
			return 0, true, err
		}
		faulted = true
	}
	return frame<<as.pageShift + vaddr&as.pageMask, faulted, nil
}

// TranslateVPN returns the physical base address of vpn's frame, taking
// a page fault if unmapped. The simulator's TLB refills and instruction
// translation caches are built on this: one page-table lookup services
// every subsequent reference to the page until the cached entry is
// invalidated.
func (as *AddressSpace) TranslateVPN(vpn uint64, cpu int) (pbase uint64, faulted bool, err error) {
	frame, ok := as.pages.Get(vpn)
	if !ok {
		frame, err = as.fault(vpn, cpu)
		if err != nil {
			return 0, true, err
		}
		faulted = true
	}
	return frame << as.pageShift, faulted, nil
}

// fault services a page fault for vpn.
func (as *AddressSpace) fault(vpn uint64, cpu int) (uint64, error) {
	as.Faults++
	var preferred int
	_, hinted := as.hints[vpn]
	if hinted {
		as.HintedFaults++
		preferred = as.hints[vpn]
	} else {
		preferred = as.policy.PreferredColor(vpn, cpu)
	}
	frame, honored, err := as.alloc.AllocFor(as.pid, preferred)
	if err != nil {
		return 0, fmt.Errorf("vm: fault on vpn %d: %w", vpn, err)
	}
	if hinted && honored {
		as.HonoredHints++
	}
	as.pages.Put(vpn, frame)
	as.frames.Put(frame, vpn)
	color := as.alloc.ColorOf(frame)
	as.occ[color]++
	if as.OnFault != nil {
		as.OnFault(as.pid, vpn, cpu, color, hinted, hinted && honored)
	}
	return frame, nil
}

// Occupancy returns the number of mapped pages of the given color.
func (as *AddressSpace) Occupancy(color int) int {
	return as.occ[memory.NormColor(color, len(as.occ))]
}

// ColorOccupancy returns a copy of the mapped-pages-per-color table.
func (as *AddressSpace) ColorOccupancy() []int {
	out := make([]int, len(as.occ))
	copy(out, as.occ)
	return out
}

// TranslateNoFault translates vaddr without taking a page fault; ok is
// false when the page is unmapped. Software prefetches use this path:
// a prefetch to an unmapped page is dropped, never faulted (§6.2).
func (as *AddressSpace) TranslateNoFault(vaddr uint64) (paddr uint64, ok bool) {
	frame, ok := as.pages.Get(vaddr >> as.pageShift)
	if !ok {
		return 0, false
	}
	return frame<<as.pageShift + vaddr&as.pageMask, true
}

// ReverseVAddr maps a physical address back to the virtual address of
// the same byte; ok is false for frames this address space does not own.
// The simulator uses it to mirror external-cache invalidations into the
// virtually indexed on-chip caches.
func (as *AddressSpace) ReverseVAddr(paddr uint64) (vaddr uint64, ok bool) {
	vpn, ok := as.frames.Get(paddr >> as.pageShift)
	if !ok {
		return 0, false
	}
	return vpn<<as.pageShift + paddr&as.pageMask, true
}

// Touch faults vpn in if needed; used by the touch-order emulation and by
// warm-up code. It reports whether a fault occurred.
func (as *AddressSpace) Touch(vpn uint64, cpu int) (bool, error) {
	if as.pages.Has(vpn) {
		return false, nil
	}
	_, err := as.fault(vpn, cpu)
	return true, err
}

// TouchInOrder faults the given pages in sequence. Combined with a
// BinHopping policy this reproduces the paper's Digital UNIX
// implementation of both page coloring and CDPC: "selectively touch the
// pages in a specific order that will generate the desired mapping"
// (§5.3). The serialization cost (all faults up front, on one CPU) is the
// drawback the paper notes; the caller charges it.
func (as *AddressSpace) TouchInOrder(vpns []uint64, cpu int) (faults int, err error) {
	for _, vpn := range vpns {
		faulted, err := as.Touch(vpn, cpu)
		if err != nil {
			return faults, err
		}
		if faulted {
			faults++
		}
	}
	return faults, nil
}

// ColorOf returns the color of vpn's frame; ok is false if unmapped.
func (as *AddressSpace) ColorOf(vpn uint64) (int, bool) {
	frame, mapped := as.pages.Get(vpn)
	if !mapped {
		return 0, false
	}
	return as.alloc.ColorOf(frame), true
}

// MappedPages returns the number of resident pages.
func (as *AddressSpace) MappedPages() int { return as.pages.Len() }
