package vm

import "fmt"

// Dynamic page recoloring, the alternative the paper discusses and
// dismisses for multiprocessors (§2.1/§2.2): the OS detects conflicting
// pages with per-page miss counters (standing in for a cache-miss
// lookaside buffer or TLB-state sampling) and recolors a page by copying
// it to a frame of a less loaded color. "To our knowledge, the
// performance of dynamic policies for multiprocessors has not been
// studied" — this implementation lets the repository study exactly that,
// including the costs the paper predicts make it unattractive: the copy,
// the per-processor TLB shootdowns, and the inter-processor
// communication of the detection and recoloring operations.

// RecolorPolicy decides when a page is recolored and where it goes.
type RecolorPolicy struct {
	// MissThreshold is the number of misses attributed to a page within
	// one observation window before it is considered conflicting.
	MissThreshold uint32
	// MaxRecolorings bounds recoloring of a single page (ping-pong guard).
	MaxRecolorings uint8
}

// DefaultRecolorPolicy mirrors the literature's settings: react after a
// burst of misses, and never move the same page more than a few times.
func DefaultRecolorPolicy() RecolorPolicy {
	return RecolorPolicy{MissThreshold: 64, MaxRecolorings: 4}
}

// pageHeat tracks the detection state of one resident page.
type pageHeat struct {
	misses      uint32
	recolorings uint8
}

// Recolorer implements the dynamic policy over an AddressSpace. The
// simulator reports external-cache misses to it; when a page crosses the
// threshold, the Recolorer picks the color with the least observed load,
// moves the page, and reports the costs for the simulator to charge.
type Recolorer struct {
	as     *AddressSpace
	policy RecolorPolicy

	heat map[uint64]*pageHeat // vpn -> detection state
	// colorLoad[cpu][color] counts misses each processor observed per
	// color: each processor has its own external cache, so conflict
	// pressure is a per-processor property (the paper's point that MP
	// detection is harder than uniprocessor detection, §2.1).
	colorLoad [][]uint64

	// Statistics.
	Recolorings uint64
	Suppressed  uint64 // recolorings skipped by the ping-pong guard
}

// NewRecolorer attaches a dynamic recoloring policy to an address space
// shared by ncpu processors.
func NewRecolorer(as *AddressSpace, ncpu int, policy RecolorPolicy) *Recolorer {
	if policy.MissThreshold == 0 {
		policy = DefaultRecolorPolicy()
	}
	if ncpu < 1 {
		ncpu = 1
	}
	load := make([][]uint64, ncpu)
	for i := range load {
		load[i] = make([]uint64, as.alloc.NumColors())
	}
	return &Recolorer{
		as:        as,
		policy:    policy,
		heat:      make(map[uint64]*pageHeat),
		colorLoad: load,
	}
}

// RecolorEvent describes one recoloring for the simulator to charge.
type RecolorEvent struct {
	VPN      uint64
	OldColor int
	NewColor int
	// PageBytes must be copied; every CPU's TLB entry for the page must
	// be shot down; the paper notes both costs are larger on MPs (§2.1).
	PageBytes int
}

// ObserveMiss records an external-cache miss by cpu on vaddr and, if
// the page has crossed the conflict threshold, recolors it. The returned
// event is non-nil when a recoloring happened.
func (r *Recolorer) ObserveMiss(cpu int, vaddr uint64) (*RecolorEvent, error) {
	if cpu < 0 || cpu >= len(r.colorLoad) {
		cpu = 0
	}
	vpn := r.as.VPN(vaddr)
	color, mapped := r.as.ColorOf(vpn)
	if !mapped {
		return nil, nil
	}
	r.colorLoad[cpu][color]++
	h := r.heat[vpn]
	if h == nil {
		h = &pageHeat{}
		r.heat[vpn] = h
	}
	h.misses++
	if h.misses < r.policy.MissThreshold {
		return nil, nil
	}
	h.misses = 0
	if h.recolorings >= r.policy.MaxRecolorings {
		r.Suppressed++
		return nil, nil
	}

	newColor := r.coldestColor(cpu)
	if newColor == color {
		return nil, nil
	}
	if err := r.as.Recolor(vpn, newColor); err != nil {
		return nil, err
	}
	// Transfer the page's heat to its new color so successive hot pages
	// spread across this processor's cold colors instead of piling onto
	// one.
	r.colorLoad[cpu][newColor] += uint64(r.policy.MissThreshold)
	h.recolorings++
	r.Recolorings++
	return &RecolorEvent{
		VPN:       vpn,
		OldColor:  color,
		NewColor:  newColor,
		PageBytes: r.as.PageSize(),
	}, nil
}

// coldestColor returns the color with the least miss load observed by
// cpu's cache, breaking ties toward colors with fewer mapped pages — a
// zero-load color may simply hold a page that is caching well, and
// moving a hot page onto it would create a fresh conflict.
func (r *Recolorer) coldestColor(cpu int) int {
	load := r.colorLoad[cpu]
	best := 0
	for c := 1; c < len(load); c++ {
		switch {
		case load[c] < load[best]:
			best = c
		case load[c] == load[best] && r.as.Occupancy(c) < r.as.Occupancy(best):
			best = c
		}
	}
	return best
}

// Recolor moves vpn to a frame of the given color, releasing the old
// frame. The caller (the OS, i.e. the simulator) is responsible for
// charging the copy, the TLB shootdowns, and invalidating cached lines
// of the old frame.
func (as *AddressSpace) Recolor(vpn uint64, color int) error {
	oldFrame, ok := as.pages.Get(vpn)
	if !ok {
		return fmt.Errorf("vm: recolor of unmapped vpn %d", vpn)
	}
	newFrame, _, err := as.allocate(color)
	if err != nil {
		return fmt.Errorf("vm: recolor vpn %d: %w", vpn, err)
	}
	as.frames.Delete(oldFrame)
	as.alloc.Release(oldFrame)
	as.occ[as.alloc.ColorOf(oldFrame)]--
	as.pages.Put(vpn, newFrame)
	as.frames.Put(newFrame, vpn)
	as.occ[as.alloc.ColorOf(newFrame)]++
	return nil
}
