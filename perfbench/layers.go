package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/memory"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Layer replay: a workload's real reference stream, captured through
// public producers, is pushed through every layer's public API in the
// engine's order — tlb.Lookup, vm.TranslateVPN, L1 cache.Access,
// coherence.Directory.Access, cache.Shadow.Access, LLC cache.Access,
// bus.Acquire on a miss. A first, untimed pass records each layer's
// call sequence; each layer is then timed alone replaying its own
// sequence into a fresh instance, as one batch, because a per-call
// clock read would cost more than the calls being measured.

// cpuRef is one captured reference and the CPU that issued it.
type cpuRef struct {
	cpu int
	ref trace.Ref
}

// replaySet is one captured stream and the machine it runs on.
type replaySet struct {
	cfg    arch.Config
	policy func(*memory.Allocator) vm.Policy
	hints  map[uint64]int
	refs   []cpuRef
}

// Kinds of logged operations.
const (
	opAccess = iota
	opInvalidate
	opClean
)

// cpuOp is a per-CPU call (TLB lookup, page-table translation).
type cpuOp struct {
	cpu int
	vpn uint64
}

// cacheOp is a call on one of several cache-like instances.
type cacheOp struct {
	who   int
	kind  uint8
	write bool
	addr  uint64
}

// busOp is one bus transaction.
type busOp struct {
	now   uint64
	bytes int
	cat   bus.Category
}

// layerLog is every layer's call sequence from the recording pass.
type layerLog struct {
	tlb, vm              []cpuOp
	l1, dir, shadow, llc []cacheOp
	bus                  []busOp
}

// layerCost is one layer's replayed calls.
type layerCost struct {
	calls    int
	accesses int // calls that can hit
	hits     int
	allocs   uint64
	elapsed  time.Duration
}

func (c *layerCost) add(o layerCost) {
	c.calls += o.calls
	c.accesses += o.accesses
	c.hits += o.hits
	c.allocs += o.allocs
	c.elapsed += o.elapsed
}

func (c layerCost) nsPerCall() float64 { return ratio(float64(c.elapsed.Nanoseconds()), c.calls) }
func (c layerCost) allocsPerCall() float64 {
	return ratio(float64(c.allocs), c.calls)
}
func (c layerCost) hitRatio() float64 { return ratio(float64(c.hits), c.accesses) }

func ratio(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// layerCosts is the replay outcome of every layer.
type layerCosts struct {
	tlb, vm, l1, dir, shadow, llc, bus layerCost
	faults                             int
}

func (c *layerCosts) add(o layerCosts) {
	c.tlb.add(o.tlb)
	c.vm.add(o.vm)
	c.l1.add(o.l1)
	c.dir.add(o.dir)
	c.shadow.add(o.shadow)
	c.llc.add(o.llc)
	c.bus.add(o.bus)
	c.faults += o.faults
}

// layers lists the per-layer costs in a fixed order.
func (c *layerCosts) layers() []*layerCost {
	return []*layerCost{&c.tlb, &c.vm, &c.l1, &c.dir, &c.shadow, &c.llc, &c.bus}
}

// counts returns the costs without timings and allocations: what
// repeats exactly between two replays of one stream. Allocation counts
// of the map-backed layers jitter slightly between replays, because Go
// seeds every map's hash function randomly and map growth depends on
// how keys spread.
func (c layerCosts) counts() layerCosts {
	for _, l := range c.layers() {
		l.elapsed, l.allocs = 0, 0
	}
	return c
}

func (c layerCosts) metrics() map[string]float64 {
	return map[string]float64{
		"tlb.lookup_ns":                c.tlb.nsPerCall(),
		"tlb.hit_ratio":                c.tlb.hitRatio(),
		"tlb.calls":                    float64(c.tlb.calls),
		"vm.translate_ns":              c.vm.nsPerCall(),
		"vm.faults":                    float64(c.faults),
		"vm.calls":                     float64(c.vm.calls),
		"cache.l1_access_ns":           c.l1.nsPerCall(),
		"cache.l1_hit_ratio":           c.l1.hitRatio(),
		"cache.l1_calls":               float64(c.l1.calls),
		"cache.shadow_access_ns":       c.shadow.nsPerCall(),
		"cache.shadow_allocs_per_call": c.shadow.allocsPerCall(),
		"cache.shadow_calls":           float64(c.shadow.calls),
		"cache.llc_access_ns":          c.llc.nsPerCall(),
		"cache.llc_hit_ratio":          c.llc.hitRatio(),
		"cache.llc_calls":              float64(c.llc.calls),
		"coherence.access_ns":          c.dir.nsPerCall(),
		"coherence.allocs_per_call":    c.dir.allocsPerCall(),
		"coherence.calls":              float64(c.dir.calls),
		"bus.acquire_ns":               c.bus.nsPerCall(),
		"bus.calls":                    float64(c.bus.calls),
	}
}

// replayAll replays every set and sums the costs.
func replayAll(sets []replaySet) (layerCosts, error) {
	var total layerCosts
	for _, s := range sets {
		c, err := replay(s)
		if err != nil {
			return total, err
		}
		total.add(c)
	}
	return total, nil
}

// replay records one set's layer calls, then times each layer alone.
func replay(s replaySet) (layerCosts, error) {
	var c layerCosts
	log, err := recordLayers(s)
	if err != nil {
		return c, err
	}
	llc := s.cfg.Topo().LLC()
	units := s.cfg.NumCPUs / llc.CPUsPerCache

	tlbs := make([]*tlb.TLB, s.cfg.NumCPUs)
	for i := range tlbs {
		tlbs[i] = tlb.New(s.cfg.TLBEntries)
	}
	c.tlb = timeCalls(len(log.tlb), func(lc *layerCost) {
		for _, op := range log.tlb {
			lc.accesses++
			if tlbs[op.cpu].Lookup(op.vpn) {
				lc.hits++
			}
		}
	})

	as := newAddressSpace(s)
	c.vm = timeCalls(len(log.vm), func(lc *layerCost) {
		for _, op := range log.vm {
			_, faulted, err := as.TranslateVPN(op.vpn, op.cpu)
			if err != nil {
				panic(fmt.Sprintf("replay: translation failed on a replayed stream: %v", err))
			}
			if faulted {
				c.faults++
			}
		}
	})

	l1s := make([]*cache.Cache, 2*s.cfg.NumCPUs)
	for i := range l1s {
		l1s[i] = cache.New(s.cfg.L1D)
		if i%2 == 1 {
			l1s[i] = cache.New(s.cfg.L1I)
		}
	}
	c.l1 = timeCalls(len(log.l1), func(lc *layerCost) { replayCaches(lc, l1s, log.l1) })

	dir := coherence.New(units, llc.Geom.LineSize)
	c.dir = timeCalls(len(log.dir), func(lc *layerCost) {
		for _, op := range log.dir {
			if op.kind == opAccess {
				dir.Access(op.who, op.addr, op.write)
			} else {
				dir.Evict(op.who, op.addr)
			}
		}
	})

	shadows := make([]*cache.Shadow, units)
	for i := range shadows {
		shadows[i] = cache.NewShadow(llc.Slices*llc.Geom.Lines(), llc.Geom.LineSize)
	}
	c.shadow = timeCalls(len(log.shadow), func(lc *layerCost) {
		for _, op := range log.shadow {
			if op.kind == opAccess {
				lc.accesses++
				if shadows[op.who].Access(op.addr) {
					lc.hits++
				}
			} else {
				shadows[op.who].Remove(op.addr)
			}
		}
	})

	llcs := make([]*cache.Cache, units)
	for i := range llcs {
		llcs[i] = cache.New(llc.Geom)
	}
	c.llc = timeCalls(len(log.llc), func(lc *layerCost) { replayCaches(lc, llcs, log.llc) })

	b := bus.New(s.cfg.BusBytesPerCycle, s.cfg.BusOverhead)
	c.bus = timeCalls(len(log.bus), func(lc *layerCost) {
		for _, op := range log.bus {
			b.Acquire(op.now, op.bytes, op.cat)
		}
	})
	return c, nil
}

// replayCaches applies logged operations to a set of caches.
func replayCaches(lc *layerCost, cs []*cache.Cache, ops []cacheOp) {
	for _, op := range ops {
		switch op.kind {
		case opAccess:
			lc.accesses++
			if cs[op.who].Access(op.addr, op.write).Hit {
				lc.hits++
			}
		case opInvalidate:
			cs[op.who].Invalidate(op.addr)
		case opClean:
			cs[op.who].Clean(op.addr)
		}
	}
}

// timeCalls runs one layer's batch, timing it and counting allocations.
func timeCalls(calls int, batch func(*layerCost)) layerCost {
	lc := layerCost{calls: calls}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	batch(&lc)
	lc.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	lc.allocs = after.Mallocs - before.Mallocs
	return lc
}

// newAddressSpace builds the set's page table over a fresh allocator.
func newAddressSpace(s replaySet) *vm.AddressSpace {
	alloc := memory.New(s.cfg.MemoryMB<<20/s.cfg.PageSize, s.cfg.Colors())
	as := vm.NewAddressSpace(s.cfg.PageSize, alloc, s.policy(alloc))
	if s.hints != nil {
		as.Advise(s.hints)
	}
	return as
}

// recordLayers runs the stream through every layer in the engine's
// order and logs each layer's calls. Timing is modelled only as far as
// the bus needs issue times: one cycle per instruction plus the hit,
// miss and TLB-refill latencies of the configuration.
func recordLayers(s replaySet) (*layerLog, error) {
	cfg := s.cfg
	llc := cfg.Topo().LLC()
	if llc.Slices != 1 || len(cfg.Topo().Levels) != 1 {
		return nil, fmt.Errorf("layer replay models the default topology only")
	}
	per := llc.CPUsPerCache
	units := cfg.NumCPUs / per
	line := llc.Geom.LineSize
	pageShift := arch.Log2(cfg.PageSize)
	pageMask := uint64(cfg.PageSize - 1)

	as := newAddressSpace(s)
	tlbs := make([]*tlb.TLB, cfg.NumCPUs)
	l1d := make([]*cache.Cache, cfg.NumCPUs)
	l1i := make([]*cache.Cache, cfg.NumCPUs)
	for i := range tlbs {
		tlbs[i] = tlb.New(cfg.TLBEntries)
		l1d[i] = cache.New(cfg.L1D)
		l1i[i] = cache.New(cfg.L1I)
	}
	dir := coherence.New(units, line)
	shadows := make([]*cache.Shadow, units)
	llcs := make([]*cache.Cache, units)
	for u := range llcs {
		shadows[u] = cache.NewShadow(llc.Geom.Lines(), line)
		llcs[u] = cache.New(llc.Geom)
	}
	b := bus.New(cfg.BusBytesPerCycle, cfg.BusOverhead)
	clock := make([]uint64, cfg.NumCPUs)
	type tcEntry struct {
		vpn, pbase uint64
		ok         bool
	}
	tc := make([][2]tcEntry, cfg.NumCPUs) // data, instruction

	log := &layerLog{}
	l1Index := func(cpu int, inst bool) int {
		if inst {
			return 2*cpu + 1
		}
		return 2 * cpu
	}
	// invalidateOnChip drops every L1 line of a physical LLC line on the
	// unit's CPUs (inclusion), via the reverse page map.
	invalidateOnChip := func(unit int, paddr uint64) {
		va, ok := as.ReverseVAddr(paddr &^ uint64(line-1))
		if !ok {
			return
		}
		for cpu := unit * per; cpu < (unit+1)*per; cpu++ {
			for off := 0; off < line; off += cfg.L1D.LineSize {
				for _, inst := range []bool{false, true} {
					c := l1d[cpu]
					if inst {
						c = l1i[cpu]
					}
					c.Invalidate(va + uint64(off))
					log.l1 = append(log.l1, cacheOp{who: l1Index(cpu, inst), kind: opInvalidate, addr: va + uint64(off)})
				}
			}
		}
	}

	for _, cr := range s.refs {
		r, cpu := cr.ref, cr.cpu
		if r.Kind == trace.Prefetch {
			continue
		}
		unit := cpu / per
		inst := r.Kind == trace.Inst
		write := r.Kind == trace.Write
		clock[cpu] += uint64(r.Work) + 1
		vpn := r.VAddr >> pageShift

		translate := func() (uint64, error) {
			e := &tc[cpu][0]
			if inst {
				e = &tc[cpu][1]
			}
			if !e.ok || e.vpn != vpn {
				log.vm = append(log.vm, cpuOp{cpu, vpn})
				pbase, faulted, err := as.TranslateVPN(vpn, cpu)
				if err != nil {
					return 0, err
				}
				if faulted {
					clock[cpu] += uint64(cfg.PageFaultCycles)
				}
				*e = tcEntry{vpn: vpn, pbase: pbase, ok: true}
			}
			return e.pbase | r.VAddr&pageMask, nil
		}

		var paddr uint64
		l1 := l1d[cpu]
		if inst {
			l1 = l1i[cpu]
		} else {
			log.tlb = append(log.tlb, cpuOp{cpu, vpn})
			if !tlbs[cpu].Lookup(vpn) {
				clock[cpu] += uint64(cfg.TLBMissCycles)
			}
			var err error
			if paddr, err = translate(); err != nil {
				return nil, err
			}
		}
		log.l1 = append(log.l1, cacheOp{who: l1Index(cpu, inst), write: write, addr: r.VAddr})
		if l1.Access(r.VAddr, write).Hit && !write {
			continue
		}
		if inst {
			var err error
			if paddr, err = translate(); err != nil {
				return nil, err
			}
		}

		log.dir = append(log.dir, cacheOp{who: unit, write: write, addr: paddr})
		out := dir.Access(unit, paddr, write)
		if out.Downgraded >= 0 {
			llcs[out.Downgraded].Clean(paddr)
			log.llc = append(log.llc, cacheOp{who: out.Downgraded, kind: opClean, addr: paddr})
		}
		for _, v := range out.Invalidated {
			llcs[v].Invalidate(paddr)
			shadows[v].Remove(paddr)
			log.llc = append(log.llc, cacheOp{who: v, kind: opInvalidate, addr: paddr})
			log.shadow = append(log.shadow, cacheOp{who: v, kind: opInvalidate, addr: paddr})
			invalidateOnChip(v, paddr)
		}

		log.shadow = append(log.shadow, cacheOp{who: unit, addr: paddr})
		shadows[unit].Access(paddr)
		log.llc = append(log.llc, cacheOp{who: unit, write: write, addr: paddr})
		res := llcs[unit].Access(paddr, write)
		if res.Evicted {
			log.dir = append(log.dir, cacheOp{who: unit, kind: opInvalidate, addr: res.VictimAddr})
			dir.Evict(unit, res.VictimAddr)
			invalidateOnChip(unit, res.VictimAddr)
			if res.VictimDirty {
				log.bus = append(log.bus, busOp{clock[cpu], line, bus.Writeback})
				b.Acquire(clock[cpu], line, bus.Writeback)
			}
		}
		if out.Upgrade {
			log.bus = append(log.bus, busOp{clock[cpu], 0, bus.Upgrade})
			clock[cpu] = b.Acquire(clock[cpu], 0, bus.Upgrade)
		}
		if res.Hit {
			clock[cpu] += uint64(llc.HitCycles)
			continue
		}
		log.bus = append(log.bus, busOp{clock[cpu], line, bus.Data})
		clock[cpu] = b.Acquire(clock[cpu], line, bus.Data) + uint64(cfg.MemCycles)
	}
	return log, nil
}

// irStreams captures up to budget references of a prepared program's
// steady-state phases: every nest contributes an equal share, its
// per-CPU streams interleaved round-robin as the engine's gang does.
// With capture false the references are only drained, which is how
// ir.stream_ns_per_ref times generation alone.
func irStreams(prog *ir.Program, p, budget int, capture bool) ([]cpuRef, int) {
	var nests []*ir.Nest
	for _, ph := range prog.Phases {
		nests = append(nests, ph.Nests...)
	}
	if len(nests) == 0 {
		return nil, 0
	}
	share := max(budget/len(nests), 1)
	var refs []cpuRef
	if capture {
		refs = make([]cpuRef, 0, budget)
	}
	total := 0
	var r trace.Ref
	for _, n := range nests {
		streams := make([]trace.Stream, p)
		for cpu := range streams {
			streams[cpu] = ir.NestStream(prog, n, p, cpu)
		}
		taken, live := 0, p
		for taken < share && live > 0 {
			live = 0
			for cpu, st := range streams {
				if st == nil {
					continue
				}
				if !st.Next(&r) {
					streams[cpu] = nil
					continue
				}
				live++
				taken++
				if capture {
					refs = append(refs, cpuRef{cpu, r})
				}
			}
		}
		total += taken
	}
	return refs, total
}

// irCapture prepares a spec and captures its stream for replay, timing
// the compiler pipeline (harness.Prepare), CDPC hint computation and
// stream generation on the way.
type irCapture struct {
	set     replaySet
	prepare time.Duration
	hints   time.Duration // zero for variants without hints
	gen     layerCost     // stream generation: calls = references
}

func captureIR(s harness.Spec, budget int) (*irCapture, error) {
	start := time.Now()
	prog, sum, cfg, err := harness.Prepare(s)
	if err != nil {
		return nil, err
	}
	c := &irCapture{prepare: time.Since(start)}
	colors := cfg.Colors()
	c.set = replaySet{cfg: cfg, policy: func(*memory.Allocator) vm.Policy { return vm.PageColoring{Colors: colors} }}
	if s.Variant == harness.CDPC {
		start = time.Now()
		h, err := core.ComputeHints(prog, sum, core.Params{NumCPUs: cfg.NumCPUs, NumColors: colors, PageSize: cfg.PageSize})
		if err != nil {
			return nil, err
		}
		c.hints, c.set.hints = time.Since(start), h.Colors
	}
	c.set.refs, _ = irStreams(prog, cfg.NumCPUs, budget, true)
	c.gen = timeCalls(0, func(lc *layerCost) {
		_, lc.calls = irStreams(prog, cfg.NumCPUs, budget, false)
	})
	return c, nil
}
