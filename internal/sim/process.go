package sim

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/bus"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/vm"
)

// SchedPolicy selects how the space-sharing scheduler multiplexes
// processes onto the machine.
type SchedPolicy int

const (
	// SchedTimeSlice gang-schedules one process at a time across every
	// CPU, round-robin by ascending pid, switching at the first region
	// boundary after the quantum expires. Context switches flush the
	// virtually indexed on-chip caches, the TLBs and the translation
	// caches; the physically tagged external caches keep their contents,
	// so cross-process interference happens through L2 tags, the shared
	// bus and the shared frame pools — exactly the state a real
	// multiprogrammed machine shares.
	SchedTimeSlice SchedPolicy = iota
	// SchedPartition space-partitions the machine: each process owns a
	// contiguous equal block of CPUs for its whole lifetime. No context
	// switches; processes interfere only through the shared bus and the
	// shared frame allocator (color competition and pressure fallback).
	SchedPartition
)

// String implements fmt.Stringer.
func (s SchedPolicy) String() string {
	switch s {
	case SchedPartition:
		return "partition"
	default:
		return "timeslice"
	}
}

// DefaultQuantum is the time-slice length in cycles when
// SchedOptions.Quantum is zero: long enough that switch costs stay a
// small overhead, short enough that co-runners genuinely interleave
// within a run.
const DefaultQuantum = 500_000

// contextSwitchCycles is the kernel cost of one time-slice switch per
// CPU (state save/restore plus the flush work), charged to the
// incoming process.
const contextSwitchCycles = 1000

// SchedOptions configures the space-sharing scheduler.
type SchedOptions struct {
	Policy SchedPolicy
	// Quantum is the SchedTimeSlice slice length in cycles; 0 uses
	// DefaultQuantum. Slices end at region boundaries (the machine's
	// natural preemption points), so a long region can overrun its slice.
	Quantum uint64
}

// ProcessOptions describes one process a run entry builds: its workload
// and its page placement. It is the only place a policy, hints, a touch
// order or a recoloring policy is set.
type ProcessOptions struct {
	// Source supplies the process's regions: its init regions, then its
	// steady-state phases.
	Source Source
	// Policy is the process's page-placement policy; nil defaults to
	// page coloring at the machine's color count (IRIX's policy, the
	// paper's base configuration).
	Policy vm.Policy
	// Hints, if non-nil, is installed through the process's address
	// space before execution: the CDPC path, with the compiler's
	// summary for a program or the online summarizer's for a trace.
	Hints map[uint64]int
	// TouchOrder, if non-nil, faults these pages in order on CPU 0 before
	// execution — the paper's Digital UNIX emulation of page coloring and
	// CDPC on top of bin hopping (§5.3). The serialized fault time is
	// charged to the master's kernel bucket. Solo runs only.
	TouchOrder []uint64
	// Recolor, if non-nil, enables the dynamic page recoloring policy the
	// paper contrasts CDPC against (§2.1/§2.2): conflicting pages are
	// detected by miss counters and moved to colder colors at run time,
	// paying copy, TLB-shootdown and invalidation costs. Full-fidelity
	// solo runs only.
	Recolor *vm.RecolorPolicy
	// Domain groups processes into isolation domains when
	// Options.Isolate is on: processes with the same Domain > 0 share a
	// color partition, Domain 0 means "own domain". Ignored (and must be
	// 0 or positive) without Isolate.
	Domain int
}

// Process is one entry of the machine's process table: its own address
// space and placement policy, its own parallel-region counter, and its
// own per-CPU stats bank. All processes draw frames from the machine's
// single shared allocator. A solo run's one process is pid 0; a mix's
// are pids 1..n.
type Process struct {
	Pid  int
	Name string

	as *vm.AddressSpace
	// colors is the process's color partition under isolation domains,
	// nil when unpartitioned.
	colors []int

	// cpus is the CPU gang the process runs on: a partition block under
	// SchedPartition, every CPU under SchedTimeSlice.
	cpus []*cpuState
	// bank holds per-CPU stats while the process is descheduled
	// (SchedTimeSlice swaps it with cpuState.stats at dispatch).
	bank []CPUStats
	// regions seeds the per-region fork-skew hash; per process, so a
	// program's dispatch jitter does not depend on its co-runners'
	// region counts.
	regions uint64
	// ran is the process's scheduled wall time: the sum of its
	// time-slice windows, or the partition's finish clock.
	ran uint64

	// work is a mix process's region sequence (init, then each phase
	// once) and next the index of the region to run next.
	work []Region
	next int
	done bool
}

// MultiResult is the outcome of a multiprocess run: one Result per
// process (its scheduled time and its own counters, auditable in
// isolation) plus the machine-wide total.
type MultiResult struct {
	Sched string
	// PerProcess is indexed by process table order (pid - 1).
	PerProcess []*Result
	// Total aggregates every process plus inter-process idle time; its
	// Bus stats are the machine totals (per-process bus shares are not
	// separable on a single shared bus).
	Total *Result
}

// Audit runs the Result conservation audit on every per-process result
// and on the machine total, prefixing violations with their scope.
func (mr *MultiResult) Audit() []obs.Violation {
	var vs []obs.Violation
	for i, r := range mr.PerProcess {
		for _, v := range r.Audit() {
			v.Detail = fmt.Sprintf("proc %d (%s): %s", i+1, r.Workload, v.Detail)
			vs = append(vs, v)
		}
	}
	for _, v := range mr.Total.Audit() {
		v.Detail = "total: " + v.Detail
		vs = append(vs, v)
	}
	return vs
}

// newProcess builds process pid from po: its address space under po's
// policy (page coloring when nil), confined to colors (domain's
// partition; nil when unpartitioned), a first-touch policy bound to the
// machine's allocator and that partition, the observability fault hook,
// po's hints installed, and the dynamic recolorer when po asks for one.
func (m *Machine) newProcess(pid int, po ProcessOptions, domain int, colors []int) *Process {
	policy := po.Policy
	if policy == nil {
		policy = vm.PageColoring{Colors: m.colors}
	}
	as := vm.NewAddressSpaceProc(pid, m.cfg.PageSize, m.alloc, policy)
	if colors != nil {
		as.Confine(domain, colors)
	}
	if ft, ok := policy.(*vm.FirstTouch); ok && ft.Alloc == nil {
		// A first-touch policy is built before the machine (and so
		// before any allocator) exists; its free-list prediction is
		// scoped to the process's partition.
		ft.Alloc = m.alloc
		ft.Colors = colors
	}
	if m.obs != nil {
		as.OnFault = func(pid int, vpn uint64, cpu, color int, hinted, honored bool) {
			var cycle uint64
			if cpu >= 0 && cpu < len(m.cpus) {
				cycle = m.cpus[cpu].clock
			}
			m.obs.RecordFaultPID(pid, cpu, cycle, vpn, color, hinted, honored)
		}
	}
	if po.Hints != nil {
		as.Advise(po.Hints)
	}
	if po.Recolor != nil {
		m.recolorer = newRecolorAdapter(as, m.cfg.NumCPUs, *po.Recolor, m.cfg.PageSize)
	}
	return &Process{Pid: pid, Name: po.Source.Name(), as: as, colors: colors}
}

// RunProcesses executes the given processes under the space-sharing
// scheduler on a fresh machine. Every executed cycle is measured —
// there is no warm-up discard, and each phase runs once, unweighted —
// because co-runners share the timeline and a per-process measured
// window cannot be cut out of it. A lone workload runs through Run or
// RunSampled instead. Touch orders and dynamic recoloring act on the
// whole machine (a serialized fault pass on CPU 0, shootdowns on every
// CPU), so a process carrying either is rejected.
func (m *Machine) RunProcesses(procs []ProcessOptions, sched SchedOptions) (*MultiResult, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("sim: no processes to run")
	}
	// A source is validated against the gang it will run on: one
	// partition block under SchedPartition, the whole machine otherwise.
	width := m.cfg.NumCPUs
	if sched.Policy == SchedPartition {
		width /= len(procs)
	}
	for _, po := range procs {
		if po.Source == nil {
			return nil, fmt.Errorf("sim: nil source in process list")
		}
		if err := po.Source.Validate(width); err != nil {
			return nil, err
		}
		if po.Domain < 0 {
			return nil, fmt.Errorf("sim: negative isolation domain %d", po.Domain)
		}
		if po.Recolor != nil {
			return nil, fmt.Errorf("sim: dynamic recoloring is not supported in multiprocess runs")
		}
		if po.TouchOrder != nil {
			return nil, fmt.Errorf("sim: touch-order faulting is not supported in multiprocess runs")
		}
	}
	var domains []int
	var partitions [][]int
	if m.opts.Isolate {
		domains = resolveDomains(procs)
		var err error
		if partitions, err = memory.Partition(m.colors, slices.Max(domains)); err != nil {
			return nil, err
		}
	}
	m.crossCheck = len(procs) > 1 || m.opts.Isolate
	table := make([]*Process, len(procs))
	for i, po := range procs {
		var domain int
		var colors []int
		if domains != nil {
			domain = domains[i]
			colors = partitions[domain-1]
		}
		p := m.newProcess(i+1, po, domain, colors)
		p.work = po.Source.InitRegions()
		for _, ph := range po.Source.Phases() {
			p.work = append(p.work, ph.Regions...)
		}
		table[i] = p
	}
	m.procs = table
	var err error
	switch sched.Policy {
	case SchedPartition:
		err = m.runPartitioned(table)
	default:
		err = m.runTimeSliced(table, sched.Quantum)
	}
	if err != nil {
		return nil, err
	}
	mr := m.collectMulti(table, sched)
	if m.obs != nil {
		m.finalizeObs()
	}
	return mr, nil
}

// resolveDomains returns each process's isolation domain, in table
// order: explicit equal Domain labels group, Domain 0 means a domain of
// one's own, and the distinct labels are renumbered 1..D by first
// appearance in pid order — a pure function of the resolved co-runner
// mix, so the color blocks memory.Partition hands out are reproducible
// from the spec alone.
func resolveDomains(procs []ProcessOptions) []int {
	domains := make([]int, 0, len(procs))
	labels := map[int]int{} // user label -> renumbered domain
	n := 0
	for _, po := range procs {
		d, ok := labels[po.Domain]
		if !ok {
			n++
			d = n
			if po.Domain > 0 {
				labels[po.Domain] = d
			}
		}
		domains = append(domains, d)
	}
	return domains
}

// runNext runs the process's next region on its gang and marks the
// process done after its last.
func (m *Machine) runNext(p *Process) error {
	if err := m.runRegion(p.cpus, p.work[p.next], &p.regions); err != nil {
		return err
	}
	p.next++
	p.done = p.next == len(p.work)
	return nil
}

// runTimeSliced gang-schedules the whole machine across processes,
// round-robin by ascending pid. Every window runs whole regions until the
// quantum is spent; at a switch the incoming process pays the kernel
// switch cost and the virtually indexed per-CPU state is flushed (TLB,
// on-chip caches, instruction translation cache) while the physically tagged
// external caches, prefetch arrivals and write buffers survive.
func (m *Machine) runTimeSliced(table []*Process, quantum uint64) error {
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	for _, p := range table {
		p.cpus = m.cpus
		p.bank = make([]CPUStats, len(m.cpus))
	}
	current := -1 // pid on the CPUs; -1 before the first dispatch
	remaining := len(table)
	for remaining > 0 {
		// Round-robin order is the fixed ascending-pid table order —
		// derived from process ids, never from map iteration.
		for _, p := range table {
			if p.done {
				continue
			}
			t0 := m.wallClock()
			switching := current != -1 && current != p.Pid
			for i, c := range m.cpus {
				c.as = p.as
				c.pid = p.Pid
				c.stats = p.bank[i]
				if switching {
					c.l1d.Flush()
					c.l1i.Flush()
					c.tlb.Flush()
					c.tcInst = transCache{}
					c.stats.ContextSwitches++
					c.stats.KernelCycles += contextSwitchCycles
					c.clock += contextSwitchCycles
				}
			}
			for !p.done && m.wallClock()-t0 < quantum {
				if err := m.runNext(p); err != nil {
					return err
				}
			}
			for i, c := range m.cpus {
				p.bank[i] = c.stats
			}
			p.ran += m.wallClock() - t0
			current = p.Pid
			if p.done {
				remaining--
				p.as.ReleaseFrames()
			}
		}
	}
	return nil
}

// runPartitioned gives each process an equal contiguous block of CPUs
// for its whole lifetime and interleaves the partitions' regions in
// global time order (earliest partition clock runs its next region; ties
// break toward the lowest pid). The shared bus orders transactions by
// timestamp, so cross-partition contention is modeled even though each
// region is simulated to completion.
func (m *Machine) runPartitioned(table []*Process) error {
	n := len(table)
	if n > len(m.cpus) {
		return fmt.Errorf("sim: %d processes exceed %d CPUs", n, len(m.cpus))
	}
	if len(m.cpus)%n != 0 {
		return fmt.Errorf("sim: %d CPUs not divisible into %d equal partitions", len(m.cpus), n)
	}
	width := len(m.cpus) / n
	for i, p := range table {
		p.cpus = m.cpus[i*width : (i+1)*width]
		for _, c := range p.cpus {
			c.as = p.as
			c.pid = p.Pid
		}
	}
	for {
		var pick *Process
		for _, p := range table {
			if p.done {
				continue
			}
			if pick == nil || clockMax(p.cpus) < clockMax(pick.cpus) {
				pick = p
			}
		}
		if pick == nil {
			return nil
		}
		if err := m.runNext(pick); err != nil {
			return err
		}
		if pick.done {
			pick.ran = clockMax(pick.cpus)
			for i := range pick.cpus {
				pick.bank = append(pick.bank, pick.cpus[i].stats)
			}
			pick.as.ReleaseFrames()
		}
	}
}

// collectMulti assembles per-process results and the machine total.
func (m *Machine) collectMulti(table []*Process, sched SchedOptions) *MultiResult {
	mr := &MultiResult{Sched: sched.Policy.String()}
	var names, policies []string
	for _, p := range table {
		res := m.processResult(p, FidelityFull, &Result{WallCycles: p.ran, PerCPU: append([]CPUStats(nil), p.bank...)})
		mr.PerProcess = append(mr.PerProcess, res)
		names = append(names, p.Name)
		policies = append(policies, p.as.PolicyName())
	}
	total := &Result{
		Workload:   strings.Join(names, "+"),
		Machine:    m.cfg.Name,
		Policy:     strings.Join(policies, "+"),
		NumCPUs:    len(m.cpus),
		Fidelity:   FidelityFull,
		WallCycles: m.wallClock(),
		PerCPU:     make([]CPUStats, len(m.cpus)),
		Isolated:   m.opts.Isolate,
	}
	if mr.Sched == "partition" {
		// Each CPU ran exactly one process; pad early finishers with
		// idle time to the machine wall so the total conserves cycles.
		width := len(m.cpus) / len(table)
		for pi, p := range table {
			for j := range p.bank {
				s := p.bank[j]
				s.SequentialCycles += total.WallCycles - p.ran
				total.PerCPU[pi*width+j] = s
			}
		}
	} else {
		// Time-slice windows tile the timeline exactly, so the per-CPU
		// banks sum to the machine wall.
		for i := range total.PerCPU {
			for _, p := range table {
				total.PerCPU[i].add(&p.bank[i], 1)
			}
		}
	}
	for _, r := range mr.PerProcess {
		total.PageFaults += r.PageFaults
		total.HintedFaults += r.HintedFaults
		total.HonoredHints += r.HonoredHints
	}
	total.Bus = BusStats{
		DataCycles:      m.bus.Occupancy(bus.Data),
		WritebackCycles: m.bus.Occupancy(bus.Writeback),
		UpgradeCycles:   m.bus.Occupancy(bus.Upgrade),
	}
	// Multiprocess runs measure every executed cycle, so the machine-
	// lifetime per-slice counters equal the total's miss split exactly.
	if m.sliceMiss != nil {
		total.SliceMisses = append([]uint64(nil), m.sliceMiss...)
	}
	mr.Total = total
	return mr
}

// processResult completes p's Result around its measured counters d:
// the process's identity, its gang width and its address space's fault
// counters, final once the process has run. Solo and mix runs build
// every per-process Result here.
func (m *Machine) processResult(p *Process, fidelity string, d *Result) *Result {
	d.Workload = p.Name
	d.Machine = m.cfg.Name
	d.Policy = p.as.PolicyName()
	d.NumCPUs = len(p.cpus)
	d.Fidelity = fidelity
	d.PageFaults = p.as.Faults
	d.HintedFaults = p.as.HintedFaults
	d.HonoredHints = p.as.HonoredHints
	d.Isolated = p.colors != nil
	return d
}
