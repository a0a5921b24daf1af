package sim

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Every reference runs in two stages. Its transition (dataRef, instRef,
// prefetchRef) moves the hierarchy state — TLB, on-chip caches,
// directory, intermediate levels, shadow, LLC, inclusion and the
// pending-prefetch map — and records what happened in the CPU's
// outcome. Its accounting (stepData, stepInst, stepPrefetch) books
// cycles, counters, bus time, write-buffer stalls, attribution and
// recoloring from that outcome. No transition reads the clock or the
// bus, so the functional warm-up (warmRef) runs the transitions alone
// and leaves exactly the state a detailed step would.

// outcome is what a reference's transition hands its accounting. Only
// the fields on the path the transition took are set.
type outcome struct {
	paddr      uint64
	tlbMiss    bool // data: the TLB missed (a prefetch is dropped)
	faulted    bool // the page-table walk faulted the page in
	l1Hit      bool
	serviced   int // innermost intermediate level that hit, -1 when none
	dir        coherence.Outcome
	shadowHit  bool
	llc        cache.Result
	writeback  bool   // the LLC victim goes to memory
	prefetched bool   // a demand hit consumed a pending prefetch...
	ready      uint64 // ...whose data arrives at this time
}

// step processes one reference on CPU c, advancing its clock.
func (m *Machine) step(c *cpuState, r *trace.Ref) error {
	switch r.Kind {
	case trace.Prefetch:
		return m.stepPrefetch(c, r)
	case trace.Inst:
		return m.stepInst(c, r)
	default:
		return m.stepData(c, r)
	}
}

// dataRef is the transition of a demand load or store.
func (m *Machine) dataRef(c *cpuState, r *trace.Ref) error {
	o := &c.out
	// Address translation: a TLB hit yields the page base; a miss walks
	// the page table (possibly faulting) and refills the entry.
	vpn := r.VAddr >> m.pageShift
	pbase, hit := c.tlb.Translate(vpn)
	o.tlbMiss, o.faulted = !hit, false
	if !hit {
		var err error
		if pbase, o.faulted, err = m.refill(c, vpn); err != nil {
			return fmt.Errorf("sim: cpu %d: %w", c.id, err)
		}
	}
	o.paddr = pbase | (r.VAddr & m.pageMask)

	write := r.Kind == trace.Write
	l1 := c.l1d.Access(r.VAddr, write)
	if l1.Evicted && l1.VictimDirty {
		// The on-chip victim is written back into the innermost
		// physically indexed level holding it (no bus traffic, no stall).
		if vp, ok := c.as.TranslateNoFault(l1.VictimAddr); ok {
			m.markDirtyPhys(c, vp)
		}
	}
	o.l1Hit = l1.Hit
	if l1.Hit && !write {
		return nil // on-chip load hit
	}

	// Physically indexed hierarchy. Stores always check the directory so
	// that upgrades and invalidations of shared lines are modeled even on
	// on-chip hits (inclusion guarantees the line is in the LLC as well).
	m.dir.AccessInto(&o.dir, c.llc.id, o.paddr, write)
	if o.dir.Downgraded >= 0 {
		m.applyDowngrade(o.paddr, o.dir.Downgraded)
	}
	if len(o.dir.Invalidated) > 0 {
		m.applyInvalidations(c, o.paddr, o.dir.Invalidated)
	}

	// Intermediate levels, inner to outer: the innermost hit services
	// the access at that level's latency. The LLC is accessed either
	// way — it is the coherence point, and its tags must see every
	// physical reference to stay inclusive of the levels above.
	o.serviced = -1
	if len(c.mids) > 0 {
		o.serviced = m.accessMids(c, o.paddr, write)
	}
	o.shadowHit = !m.opts.DisableClassification && c.llc.shadow.Access(o.paddr)
	o.llc = c.llc.cacheFor(o.paddr).Access(o.paddr, write)
	o.writeback = o.llc.Evicted && m.evictLLC(c, o.llc)

	// An on-chip miss served on chip consumes a pending prefetch of the
	// line.
	o.prefetched = false
	if (o.llc.Hit || o.serviced >= 0) && !l1.Hit && len(c.pending) > 0 {
		la := m.llcLineAddr(o.paddr)
		if o.ready, o.prefetched = c.pending[la]; o.prefetched {
			delete(c.pending, la)
		}
	}
	return nil
}

// stepData handles a demand load or store.
func (m *Machine) stepData(c *cpuState, r *trace.Ref) error {
	if err := m.dataRef(c, r); err != nil {
		return err
	}
	o := &c.out
	work := uint64(r.Work) + 1 // the memory instruction itself plus its arithmetic
	c.stats.Instructions += work
	c.stats.ExecCycles += work
	c.clock += work
	if o.tlbMiss {
		c.stats.TLBMisses++
		c.stats.KernelCycles += uint64(m.cfg.TLBMissCycles)
		c.clock += uint64(m.cfg.TLBMissCycles)
		if o.faulted {
			c.stats.PageFaults++
			c.stats.KernelCycles += uint64(m.cfg.PageFaultCycles)
			c.clock += uint64(m.cfg.PageFaultCycles)
		}
	}
	if o.l1Hit && r.Kind != trace.Write {
		return nil // on-chip load hit: 1 cycle, already charged
	}
	if o.writeback {
		m.writeback(c)
	}

	if o.llc.Hit || o.serviced >= 0 {
		if o.dir.Upgrade {
			done := m.bus.Acquire(c.clock, 0, bus.Upgrade)
			c.stats.StallUpgrade += done - c.clock
			c.stats.Upgrades++
			c.clock = done
		}
		if !o.l1Hit {
			if o.prefetched {
				c.stats.PrefetchedHits++
				if o.ready > c.clock {
					c.stats.StallPrefetch += o.ready - c.clock
					c.clock = o.ready
				}
			}
			hit := m.llcLevel.HitCycles
			if o.serviced >= 0 {
				hit = m.midLevels[o.serviced].HitCycles
			}
			c.stats.StallOnChip += uint64(hit)
			c.clock += uint64(hit)
		}
		return nil
	}

	// Full last-level-cache miss.
	vpn := r.VAddr >> m.pageShift
	stall := m.missCycles(c, o.paddr, o.dir.DirtyRemote)
	m.chargeMiss(c, o.dir.Class, o.shadowHit, stall)
	m.countSliceMiss(o.paddr)
	// Cross-domain attribution: a data miss that displaced a victim
	// owned by a foreign isolation domain / process is a cache-set
	// conflict between domains — the co-scheduled collision pathology —
	// whatever class the accessor's own miss lands in (the incoming
	// process's first sweep over a co-runner's lines classifies cold or
	// capacity). Off (crossCheck false) for single-process runs.
	if m.crossCheck && o.llc.Evicted && m.crossDomainVictim(c.pid, o.llc.VictimAddr) {
		c.stats.CrossDomainConflicts++
		if m.obs != nil {
			m.obs.RecordCrossDomainPID(c.pid, c.id, c.clock, vpn, m.frameColor(o.llc.VictimAddr))
		}
	}
	if m.obs != nil {
		m.obs.RecordMissPID(c.pid, c.id, c.clock, vpn, m.frameColor(o.paddr), obsClass(o.dir.Class, o.shadowHit), stall)
	}
	c.clock += stall
	if m.recolorer != nil {
		return m.maybeRecolor(c, r.VAddr)
	}
	return nil
}

// instRef is the transition of an instruction fetch.
func (m *Machine) instRef(c *cpuState, r *trace.Ref) error {
	o := &c.out
	c.fetched = true
	if o.l1Hit = c.l1i.Access(r.VAddr, false).Hit; o.l1Hit {
		return nil
	}
	var err error
	if o.paddr, o.faulted, err = m.translateInst(c, r.VAddr); err != nil {
		return fmt.Errorf("sim: cpu %d (inst): %w", c.id, err)
	}
	m.dir.AccessInto(&o.dir, c.llc.id, o.paddr, false)
	if o.dir.Downgraded >= 0 {
		m.applyDowngrade(o.paddr, o.dir.Downgraded)
	}
	o.serviced = -1
	if len(c.mids) > 0 {
		o.serviced = m.accessMids(c, o.paddr, false)
	}
	o.shadowHit = !m.opts.DisableClassification && c.llc.shadow.Access(o.paddr)
	o.llc = c.llc.cacheFor(o.paddr).Access(o.paddr, false)
	o.writeback = o.llc.Evicted && m.evictLLC(c, o.llc)
	return nil
}

// stepInst handles an instruction fetch (one on-chip I-cache line worth
// of instructions; r.Work carries the instruction count).
func (m *Machine) stepInst(c *cpuState, r *trace.Ref) error {
	if err := m.instRef(c, r); err != nil {
		return err
	}
	o := &c.out
	work := uint64(r.Work)
	c.stats.Instructions += work
	c.stats.ExecCycles += work
	c.clock += work
	if o.l1Hit {
		return nil
	}
	if o.faulted {
		c.stats.PageFaults++
		c.stats.KernelCycles += uint64(m.cfg.PageFaultCycles)
		c.clock += uint64(m.cfg.PageFaultCycles)
	}
	if o.writeback {
		m.writeback(c)
	}
	if o.llc.Hit || o.serviced >= 0 {
		// fpppp's signature cost: instruction fetches served by the
		// external hierarchy (§4.1).
		hit := m.llcLevel.HitCycles
		if o.serviced >= 0 {
			hit = m.midLevels[o.serviced].HitCycles
		}
		c.stats.StallInst += uint64(hit)
		c.clock += uint64(hit)
		return nil
	}
	c.stats.L2Misses++
	c.stats.InstMisses++
	m.countSliceMiss(o.paddr)
	stall := m.missCycles(c, o.paddr, o.dir.DirtyRemote)
	c.stats.StallInst += stall
	if m.obs != nil {
		m.obs.RecordMissPID(c.pid, c.id, c.clock, r.VAddr>>m.pageShift, m.frameColor(o.paddr), obs.InstFetch, stall)
	}
	c.clock += stall
	// Code pages conflict-miss like data pages do; feed the dynamic
	// policy so a thrashing hot code page can be recolored too.
	if m.recolorer != nil {
		return m.maybeRecolor(c, r.VAddr)
	}
	return nil
}

// prefetchRef is the transition of a non-binding software prefetch: it
// reports whether the prefetch was issued, filling the external cache
// only. A prefetch is dropped on a TLB miss and skipped when its line is
// already resident or already coming. The caller records the line's
// arrival in the pending map.
func (m *Machine) prefetchRef(c *cpuState, r *trace.Ref) (issued bool) {
	o := &c.out
	pbase, ok := c.tlb.Peek(r.VAddr >> m.pageShift)
	if o.tlbMiss = !ok; !ok {
		return false
	}
	o.paddr = pbase | (r.VAddr & m.pageMask)
	if len(c.pending) > 0 {
		if _, inflight := c.pending[m.llcLineAddr(o.paddr)]; inflight {
			return false
		}
	}
	if c.llc.cacheFor(o.paddr).Probe(o.paddr) {
		return false
	}
	m.dir.AccessInto(&o.dir, c.llc.id, o.paddr, false)
	if o.dir.Downgraded >= 0 {
		m.applyDowngrade(o.paddr, o.dir.Downgraded)
	}
	if len(o.dir.Invalidated) > 0 {
		m.applyInvalidations(c, o.paddr, o.dir.Invalidated)
	}
	o.shadowHit = !m.opts.DisableClassification && c.llc.shadow.Access(o.paddr)
	o.llc = c.llc.cacheFor(o.paddr).Access(o.paddr, false)
	o.writeback = o.llc.Evicted && m.evictLLC(c, o.llc)
	return true
}

// stepPrefetch handles a software prefetch (§6.2): at most
// MaxOutstandingPrefetches in flight (one more stalls the CPU).
func (m *Machine) stepPrefetch(c *cpuState, r *trace.Ref) error {
	issued := m.prefetchRef(c, r)
	o := &c.out
	c.stats.Instructions++
	c.stats.ExecCycles++
	c.clock++
	if o.tlbMiss {
		c.stats.PrefetchesDropped++
		return nil
	}
	if !issued {
		return nil
	}
	// Issuing a fifth prefetch stalls the processor until a slot frees.
	c.stats.StallPrefetch += c.waitSlot(&c.outstanding, m.cfg.MaxOutstandingPrefetches)
	latency := uint64(m.cfg.MemCycles)
	if o.dir.DirtyRemote {
		latency = uint64(m.cfg.RemoteCycles)
	}
	done := m.bus.Acquire(c.clock, m.llcLine, bus.Data)
	queue := done - c.clock - m.bus.HoldCycles(m.llcLine)
	arrival := c.clock + queue + latency + c.memJitter(m.cfg.MemJitterCycles)
	if o.writeback {
		m.writeback(c)
	}
	c.pending[m.llcLineAddr(o.paddr)] = arrival
	c.outstanding = append(c.outstanding, arrival)
	c.stats.PrefetchesIssued++
	return nil
}

// refill walks the page table for vpn after a TLB miss on CPU c and
// stores the page base in the entry the miss installed. Every TLB entry
// thus maps its page's current frame: recoloring shoots the entry down
// on every CPU and a time-slice switch flushes the TLB. When the walk
// fails the entry is dropped again.
func (m *Machine) refill(c *cpuState, vpn uint64) (pbase uint64, faulted bool, err error) {
	pbase, faulted, err = c.as.TranslateVPN(vpn, c.id)
	if err != nil {
		c.tlb.Invalidate(vpn)
		return 0, faulted, err
	}
	c.tlb.Fill(pbase)
	return pbase, faulted, nil
}

// translateInst translates an instruction fetch on CPU c. Fetches go
// through no TLB; the one-entry translation cache stands in for the
// page-table walk while the CPU stays on one code page.
func (m *Machine) translateInst(c *cpuState, vaddr uint64) (paddr uint64, faulted bool, err error) {
	vpn := vaddr >> m.pageShift
	if !c.tcInst.valid || c.tcInst.vpn != vpn {
		var pbase uint64
		if pbase, faulted, err = c.as.TranslateVPN(vpn, c.id); err != nil {
			return 0, faulted, err
		}
		c.tcInst = transCache{vpn: vpn, pbase: pbase, valid: true}
	}
	return c.tcInst.pbase | (vaddr & m.pageMask), faulted, nil
}

// waitSlot drops the completion times in slots that have passed and,
// while limit (when positive) of them are still in flight, advances the
// clock to the earliest. It returns the stall for the caller to book.
func (c *cpuState) waitSlot(slots *[]uint64, limit int) (stall uint64) {
	for {
		live, earliest := (*slots)[:0], ^uint64(0)
		for _, t := range *slots {
			if t > c.clock {
				live = append(live, t)
				earliest = min(earliest, t)
			}
		}
		*slots = live
		if limit <= 0 || len(live) < limit {
			return stall
		}
		stall += earliest - c.clock
		c.clock = earliest
	}
}

// missCycles charges the bus transaction for a line fetch and returns
// the total stall: queueing delay plus the (contention-free) latency
// plus a small deterministic jitter modeling DRAM timing variance.
func (m *Machine) missCycles(c *cpuState, paddr uint64, dirtyRemote bool) uint64 {
	latency := uint64(m.cfg.MemCycles)
	if dirtyRemote {
		latency = uint64(m.cfg.RemoteCycles)
		c.stats.RemoteSupplies++
	}
	done := m.bus.Acquire(c.clock, m.llcLine, bus.Data)
	queue := done - c.clock - m.bus.HoldCycles(m.llcLine)
	c.stats.BusQueueCycles += queue
	return queue + latency + c.memJitter(m.cfg.MemJitterCycles)
}

// countSliceMiss books one LLC miss against its slice (sliced LLCs
// only; a nil counter vector keeps the default path to one branch).
func (m *Machine) countSliceMiss(paddr uint64) {
	if m.sliceMiss != nil {
		m.sliceMiss[m.llcLevel.Hash.SliceOf(paddr)]++
	}
}

// markDirtyPhys marks an on-chip victim's line dirty at the innermost
// physically indexed level holding it; dirtiness then migrates outward
// with each level's own evictions.
func (m *Machine) markDirtyPhys(c *cpuState, paddr uint64) {
	for _, mc := range c.mids {
		if mc.Probe(paddr) {
			mc.MarkDirty(paddr)
			return
		}
	}
	c.llc.cacheFor(paddr).MarkDirty(paddr)
}

// accessMids runs a physical access through the intermediate levels,
// inner to outer, returning the index of the innermost level that hit
// (-1 when none). A dirty mid victim is written into the next level
// down — internal hierarchy traffic, no bus. The caller enters it only
// when c has intermediate levels (the default topology has none) and
// takes -1 otherwise.
func (m *Machine) accessMids(c *cpuState, paddr uint64, write bool) int {
	serviced := -1
	for li, mc := range c.mids {
		r := mc.Access(paddr, write)
		if r.Evicted && r.VictimDirty {
			m.midWriteback(c, li, r.VictimAddr)
		}
		if r.Hit && serviced < 0 {
			serviced = li
		}
	}
	return serviced
}

// midWriteback propagates a dirty victim evicted from mid level li into
// the next level of the hierarchy that holds the line (ultimately the
// LLC, which inclusion guarantees holds it).
func (m *Machine) midWriteback(c *cpuState, li int, victim uint64) {
	for _, mc := range c.mids[li+1:] {
		if mc.Probe(victim) {
			mc.MarkDirty(victim)
			return
		}
	}
	c.llc.cacheFor(victim).MarkDirty(victim)
}

// memJitter returns a deterministic per-CPU, per-miss latency
// perturbation in [0, bound).
func (c *cpuState) memJitter(bound int) uint64 {
	if bound <= 0 {
		return 0
	}
	h := uint64(c.id)*0x9e3779b97f4a7c15 + c.stats.L2Misses*0x2545f4914f6cdd1d
	h ^= h >> 33
	return (h * 0x5851f42d4c957f2d >> 48) % uint64(bound)
}

// chargeMiss books a data miss's stall into the right class bucket.
func (m *Machine) chargeMiss(c *cpuState, class coherence.Class, shadowHit bool, stall uint64) {
	c.stats.L2Misses++
	switch class {
	case coherence.Cold:
		c.stats.ColdMisses++
		c.stats.StallCold += stall
	case coherence.TrueShare:
		c.stats.TrueShareMisses++
		c.stats.StallTrue += stall
	case coherence.FalseShare:
		c.stats.FalseShareMisses++
		c.stats.StallFalse += stall
	default: // Replacement (or a directory/cache disagreement: count it here)
		if shadowHit {
			c.stats.ConflictMisses++
			c.stats.StallConflict += stall
		} else {
			c.stats.CapacityMisses++
			c.stats.StallCapacity += stall
		}
	}
}

// obsClass maps the simulator's miss classification (coherence class
// plus the shadow-cache split chargeMiss applies) onto the attribution
// classes.
func obsClass(class coherence.Class, shadowHit bool) obs.MissClass {
	switch class {
	case coherence.Cold:
		return obs.Cold
	case coherence.TrueShare:
		return obs.TrueShare
	case coherence.FalseShare:
		return obs.FalseShare
	default:
		if shadowHit {
			return obs.Conflict
		}
		return obs.Capacity
	}
}

// applyDowngrade mirrors a directory read-downgrade into the supplying
// owner's LLC unit: flushing the dirty line to memory as part of the
// supply leaves the owner's copy clean. Without this, the owner's
// eventual eviction of the line charged a second writeback transaction
// for data memory already held — the bus-occupancy double count that
// pushed BusUtilization past 1 on sharing-heavy runs. The owner's
// intermediate levels may also hold the dirty line; clean them too
// (Clean is a no-op where the line is absent).
//
// owner must be a unit index: the caller tests Downgraded >= 0 first,
// and an owner of -1 (no downgrade) panics.
func (m *Machine) applyDowngrade(paddr uint64, owner int) {
	u := m.llcUnits[owner]
	u.cacheFor(paddr).Clean(paddr)
	for _, p := range u.cpus {
		for _, mc := range m.cpus[p].mids {
			mc.Clean(paddr)
		}
	}
}

// applyInvalidations mirrors directory invalidations into the other LLC
// units — slice tags, shadow caches — and, per member CPU, intermediate
// levels, pending prefetches, and (via the reverse map) the virtually
// indexed on-chip caches, preserving inclusion. The reverse map is the
// accessing CPU's current address space: under time-slicing every CPU
// runs the same process, and across space partitions a frame belongs to
// exactly one live process, so stale sharers from an exited process
// only need their physically indexed state dropped (their virtually
// indexed L1s were flushed when they switched out).
//
// units must be non-empty: the caller tests it first, so that the common
// reference, which invalidates nothing, enters no call.
func (m *Machine) applyInvalidations(c *cpuState, paddr uint64, units []int) {
	vaddr, haveV := c.as.ReverseVAddr(paddr)
	la := m.llcLineAddr(paddr)
	for _, uid := range units {
		u := m.llcUnits[uid]
		u.cacheFor(paddr).Invalidate(paddr)
		u.shadow.Remove(paddr)
		for _, p := range u.cpus {
			o := m.cpus[p]
			for _, mc := range o.mids {
				mc.Invalidate(paddr)
			}
			delete(o.pending, la)
			if haveV {
				o.l1d.Invalidate(vaddr)
				if o.fetched {
					o.l1i.Invalidate(vaddr)
				}
			}
		}
	}
}

// dropL1 invalidates every on-chip line within [vaddr, vaddr+size).
// On-chip lines may be smaller than the range, and the L1D and L1I may
// differ in line size; each cache walks its own lines. An L1I that no
// fetch ever filled is skipped.
func (c *cpuState) dropL1(vaddr, size uint64) {
	c.l1d.InvalidateRange(vaddr, size)
	if c.fetched {
		c.l1i.InvalidateRange(vaddr, size)
	}
}

// evictLLC keeps the directory and the inner levels (inclusion)
// consistent with a last-level-cache eviction and reports whether the
// victim must be written back. Every CPU sharing the evicting unit may
// hold the line on-chip or have a prefetch in flight for it; inclusive
// intermediate levels are back-invalidated, and a dirty copy surfaced
// there joins the victim's writeback.
//
// res.Evicted must be true: the caller tests it first, and on a result
// that evicted nothing the zero VictimAddr would be evicted instead.
func (m *Machine) evictLLC(c *cpuState, res cache.Result) (writeback bool) {
	m.dir.Evict(c.llc.id, res.VictimAddr)
	writeback = res.VictimDirty
	la := m.llcLineAddr(res.VictimAddr)
	for _, p := range c.llc.cpus {
		o := m.cpus[p]
		if len(o.pending) > 0 {
			delete(o.pending, la)
		}
		for li, mc := range o.mids {
			if m.midLevels[li].Inclusive && mc.InvalidateRange(la, uint64(m.llcLine)) {
				writeback = true
			}
		}
		// The victim may belong to a descheduled process (physical tags
		// survive context switches); o.as then has no reverse mapping and
		// the on-chip invalidation is skipped — those L1 lines were
		// flushed when the owning process switched out.
		if vaddr, ok := o.as.ReverseVAddr(res.VictimAddr); ok {
			// Inclusion: every on-chip line within the evicted LLC line
			// must go.
			o.dropL1(vaddr, uint64(m.llcLine))
		}
	}
	return writeback
}

// writeback books a dirty LLC victim's bus transaction. Write-back
// buffers hide the latency from the processor as long as an entry is
// free; a full buffer stalls the CPU until the oldest write-back's bus
// transaction completes.
func (m *Machine) writeback(c *cpuState) {
	c.stats.StallWriteBuffer += c.waitSlot(&c.writeBuffer, m.cfg.WriteBufferEntries)
	done := m.bus.Acquire(c.clock, m.llcLine, bus.Writeback)
	if m.cfg.WriteBufferEntries > 0 {
		c.writeBuffer = append(c.writeBuffer, done)
	}
}
