package sim

import (
	"repro/internal/bus"
	"repro/internal/vm"
)

// Dynamic page recoloring support: the simulator reports external-cache
// misses to a vm.Recolorer and, when it moves a page, charges the costs
// the paper predicts make the approach expensive on multiprocessors
// (§2.1): the page copy over the shared bus, a TLB shootdown on every
// processor, and invalidation of the old frame's cached lines.

// Dynamic recoloring cost parameters, in cycles. These follow the
// paper's qualitative argument ("the TLB state of each processor must be
// individually flushed and the recoloring operation may generate
// significant inter-processor communication") with magnitudes in line
// with the kernel costs of the base configuration.
const (
	// recolorKernelCycles is the detecting CPU's kernel work per
	// recoloring (allocation, table updates) beyond the copy itself.
	recolorKernelCycles = 2000
	// shootdownCycles is each other CPU's interrupt + TLB invalidate.
	shootdownCycles = 400
)

// maybeRecolor feeds one data miss to the dynamic policy and applies a
// resulting recoloring.
func (m *Machine) maybeRecolor(c *cpuState, vaddr uint64) error {
	ev, err := m.recolorer.ObserveMiss(c.id, vaddr)
	if err != nil {
		return err
	}
	if ev == nil {
		return nil
	}
	m.applyRecoloring(c, ev)
	return nil
}

// applyRecoloring charges a recoloring's costs and keeps the caches,
// shadow caches, TLBs and directory consistent with the page move.
func (m *Machine) applyRecoloring(c *cpuState, ev *RecolorEvent) {
	pageSize := uint64(m.cfg.PageSize)
	lineSize := uint64(m.llcLine)

	// The old frame's lines cease to back the page: drop them from every
	// LLC unit, intermediate level, shadow cache and the directory.
	oldBase := ev.OldFrameBase
	for off := uint64(0); off < pageSize; off += lineSize {
		paddr := oldBase + off
		m.dir.Forget(paddr)
		for _, u := range m.llcUnits {
			u.cacheFor(paddr).Invalidate(paddr)
			u.shadow.Remove(paddr)
		}
		for _, o := range m.cpus {
			for _, mc := range o.mids {
				mc.Invalidate(paddr)
			}
			delete(o.pending, paddr)
		}
	}
	// On-chip caches are virtually indexed; the virtual lines survive the
	// move only if their data were copied, which the kernel does — but
	// their backing physical line changed, so conservatively drop them.
	for _, o := range m.cpus {
		o.dropL1(ev.VPN*pageSize, pageSize)
	}

	// Costs: page copy over the bus (read + write) charged to the
	// detecting CPU as kernel time; every other CPU takes a shootdown
	// interrupt; every TLB loses the translation.
	done := m.bus.Acquire(c.clock, 2*int(pageSize), bus.Writeback)
	copyCycles := done - c.clock
	c.stats.KernelCycles += copyCycles + recolorKernelCycles
	c.clock += copyCycles + recolorKernelCycles
	c.stats.Recolorings++
	m.shootdowns++
	if m.obs != nil {
		m.obs.RecordRecolor(c.id, c.clock, ev.VPN, m.frameColor(ev.OldFrameBase), ev.NewColor)
	}

	for _, o := range m.cpus {
		// The page moved to a new frame: drop every cached translation
		// of the stale mapping, the TLB entry and the instruction-side
		// translation cache alike.
		o.tlb.Invalidate(ev.VPN)
		if o.tcInst.vpn == ev.VPN {
			o.tcInst.valid = false
		}
		if o != c {
			o.stats.KernelCycles += shootdownCycles
			o.clock += shootdownCycles
		}
	}
}

// RecolorEvent augments the VM-level event with the old frame's physical
// base, which the simulator needs to sweep stale lines.
type RecolorEvent struct {
	VPN          uint64
	OldFrameBase uint64
	NewColor     int
}

// recolorAdapter bridges vm.Recolorer (which reports vm.RecolorEvent
// without physical addresses) to the simulator's needs by capturing the
// old translation before the move.
type recolorAdapter struct {
	as       *vm.AddressSpace
	inner    *vm.Recolorer
	pageSize uint64
}

func newRecolorAdapter(as *vm.AddressSpace, ncpu int, policy vm.RecolorPolicy, pageSize int) *recolorAdapter {
	return &recolorAdapter{
		as:       as,
		inner:    vm.NewRecolorer(as, ncpu, policy),
		pageSize: uint64(pageSize),
	}
}

// ObserveMiss wraps the VM policy, translating before the potential move
// so the old frame base is known.
func (r *recolorAdapter) ObserveMiss(cpu int, vaddr uint64) (*RecolorEvent, error) {
	oldPaddr, ok := r.as.TranslateNoFault(vaddr)
	if !ok {
		return nil, nil
	}
	ev, err := r.inner.ObserveMiss(cpu, vaddr)
	if err != nil || ev == nil {
		return nil, err
	}
	return &RecolorEvent{
		VPN:          ev.VPN,
		OldFrameBase: oldPaddr &^ (r.pageSize - 1),
		NewColor:     ev.NewColor,
	}, nil
}

// Recolorings reports how many recolorings the policy performed.
func (r *recolorAdapter) Recolorings() uint64 { return r.inner.Recolorings }
