package sim

import (
	"fmt"
	"strings"

	"repro/internal/bus"
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

// ProcessOptions describes one workload entering the process table.
type ProcessOptions struct {
	// Source supplies the process's regions: its init regions, then each
	// steady-state phase's regions once.
	Source Source
	// Policy is the process's page-placement policy; nil defaults to
	// page coloring at the machine's color count.
	Policy vm.Policy
	// Hints, if non-nil, is installed through the process's address
	// space before execution (the CDPC path).
	Hints map[uint64]int
	// Domain groups processes into isolation domains when
	// Options.Isolate is on: processes with the same Domain > 0 share a
	// color partition, Domain 0 means "own domain". Ignored (and must be
	// 0 or positive) without Isolate.
	Domain int
}

// Process is one entry of the machine's process table: its own address
// space and placement policy, its own parallel-region counter, and its
// own per-CPU stats bank. All processes draw frames from the machine's
// single shared allocator.
type Process struct {
	Pid  int
	Name string

	as *vm.AddressSpace

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

	// work is the region sequence (init, then each phase once) and next
	// the index of the region to run next.
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

// RunProcesses executes the given processes under the space-sharing
// scheduler on a fresh machine. A single process with no explicit
// policy or hints runs as RunSource would (warm-up, phase weighting,
// the machine's configured policy, sampling when requested) and is
// byte-identical to it. Multiprocess runs measure every executed cycle
// — there is no warm-up discard, and each phase runs once, unweighted —
// because co-runners share the timeline and a per-process measured
// window cannot be cut out of it.
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
	}
	if len(procs) == 1 && procs[0].Policy == nil && procs[0].Hints == nil && !m.opts.Isolate {
		res, err := m.runAlone(procs[0].Source)
		if err != nil {
			return nil, err
		}
		return &MultiResult{Sched: sched.Policy.String(), PerProcess: []*Result{res}, Total: res}, nil
	}
	if m.opts.Recolor != nil {
		return nil, fmt.Errorf("sim: dynamic recoloring is not supported in multiprocess runs")
	}
	if m.opts.Hints != nil || m.opts.TouchOrder != nil {
		return nil, fmt.Errorf("sim: machine-level hints/touch-order apply to the single-process path; use ProcessOptions")
	}
	if m.opts.Isolate {
		if err := m.alloc.AssignDomains(resolveDomains(procs)); err != nil {
			return nil, err
		}
	}
	m.crossCheck = len(procs) > 1 || m.opts.Isolate
	table := make([]*Process, len(procs))
	for i, po := range procs {
		pid := i + 1
		policy := po.Policy
		if policy == nil {
			policy = vm.PageColoring{Colors: m.colors}
		}
		bindPolicy(policy, m.alloc, pid)
		as := vm.NewAddressSpaceProc(pid, m.cfg.PageSize, m.alloc, policy)
		if m.obs != nil {
			as.OnFault = m.obsFaultHook()
		}
		if po.Hints != nil {
			as.Advise(po.Hints)
		}
		table[i] = &Process{Pid: pid, Name: po.Source.Name(), as: as, work: po.Source.InitRegions()}
		for _, ph := range po.Source.Phases() {
			table[i].work = append(table[i].work, ph.Regions...)
		}
	}
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
		m.finalizeObsMulti(table)
	}
	return mr, nil
}

// resolveDomains maps each table pid to its isolation domain: explicit
// equal Domain labels group, Domain 0 means a domain of one's own, and
// the distinct labels are renumbered 1..D by first appearance in pid
// order — a pure function of the resolved co-runner mix, so the color
// blocks AssignDomains hands out are reproducible from the spec alone.
func resolveDomains(procs []ProcessOptions) map[int]int {
	pids := make(map[int]int, len(procs))
	labels := map[int]int{} // user label -> renumbered domain
	next := 1
	for i, po := range procs {
		d := 0
		if po.Domain > 0 {
			if got, ok := labels[po.Domain]; ok {
				d = got
			} else {
				d = next
				labels[po.Domain] = d
				next++
			}
		} else {
			d = next
			next++
		}
		pids[i+1] = d
	}
	return pids
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
				m.alloc.ReleaseOwned(p.Pid)
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
			m.alloc.ReleaseOwned(pick.Pid)
		}
	}
}

// collectMulti assembles per-process results and the machine total.
func (m *Machine) collectMulti(table []*Process, sched SchedOptions) *MultiResult {
	mr := &MultiResult{Sched: sched.Policy.String()}
	var names, policies []string
	for _, p := range table {
		res := &Result{
			Workload:     p.Name,
			Machine:      m.cfg.Name,
			Policy:       p.as.PolicyName(),
			NumCPUs:      len(p.cpus),
			Fidelity:     FidelityFull,
			WallCycles:   p.ran,
			PerCPU:       append([]CPUStats(nil), p.bank...),
			PageFaults:   p.as.Faults,
			HintedFaults: p.as.HintedFaults,
			HonoredHints: p.as.HonoredHints,
			Isolated:     m.alloc.Partitioned(),
		}
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
		Isolated:   m.alloc.Partitioned(),
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

// finalizeObsMulti snapshots the set profiles and the combined VM and
// allocator color state over every process at the end of a
// multiprocess run.
func (m *Machine) finalizeObsMulti(table []*Process) {
	m.recordSetProfiles()
	mapped := make([]int, m.colors)
	var faults, hinted, honored uint64
	for _, p := range table {
		for c, n := range p.as.ColorOccupancy() {
			mapped[c] += n
		}
		faults += p.as.Faults
		hinted += p.as.HintedFaults
		honored += p.as.HonoredHints
	}
	m.obs.RecordAllocation(mapped, m.alloc.FreeByColor(), faults, hinted, honored)
}
