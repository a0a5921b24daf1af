package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Row flattens one simulation result into named scalar metrics.
type Row struct {
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	Policy   string `json:"policy"`
	// Proc identifies the process a multiprocess row describes ("1",
	// "2", ... or "total" for the machine-wide sum); empty on
	// single-process rows, so existing sweep output is unchanged.
	Proc     string  `json:"proc,omitempty"`
	CPUs     int     `json:"cpus"`
	Prefetch bool    `json:"prefetch"`
	Wall     uint64  `json:"wall_cycles"`
	Combined uint64  `json:"combined_cycles"`
	MCPI     float64 `json:"mcpi"`
	BusUtil  float64 `json:"bus_utilization"`

	Instructions   uint64 `json:"instructions"`
	ExecCycles     uint64 `json:"exec_cycles"`
	MemStall       uint64 `json:"mem_stall_cycles"`
	Overhead       uint64 `json:"overhead_cycles"`
	L2Misses       uint64 `json:"l2_misses"`
	ColdMisses     uint64 `json:"cold_misses"`
	ConflictMisses uint64 `json:"conflict_misses"`
	CapacityMisses uint64 `json:"capacity_misses"`
	TrueSharing    uint64 `json:"true_sharing_misses"`
	FalseSharing   uint64 `json:"false_sharing_misses"`
	PageFaults     uint64 `json:"page_faults"`
	HintedFaults   uint64 `json:"hinted_faults"`
	HonoredHints   uint64 `json:"honored_hints"`
	Recolorings    uint64 `json:"recolorings"`
	// ContextSwitches counts time-slice scheduler dispatches that
	// replaced a different process on a CPU (zero on single-process and
	// space-partitioned runs).
	ContextSwitches uint64 `json:"context_switches"`
	// CrossDomainConflicts counts conflict misses that evicted a victim
	// of another isolation domain (unpartitioned: another process);
	// exactly zero on Isolated rows, by audit invariant 12.
	CrossDomainConflicts uint64 `json:"cross_domain_conflicts"`
	// Isolated marks rows produced under color-partitioned isolation
	// domains.
	Isolated bool `json:"isolated,omitempty"`

	InstMisses        uint64 `json:"inst_misses"`
	Upgrades          uint64 `json:"upgrades"`
	TLBMisses         uint64 `json:"tlb_misses"`
	PrefetchesIssued  uint64 `json:"prefetches_issued"`
	PrefetchesDropped uint64 `json:"prefetches_dropped"`
	PrefetchedHits    uint64 `json:"prefetched_hits"`
	RemoteSupplies    uint64 `json:"remote_supplies"`
	BusQueueCycles    uint64 `json:"bus_queue_cycles"`
	WriteBufferStall  uint64 `json:"write_buffer_stall"`
	// CPUPageFaults sums the per-CPU measured-phase fault counters; it
	// differs from PageFaults, which is the address space's whole-run
	// fault count including initialization and warmup.
	CPUPageFaults uint64 `json:"cpu_page_faults"`

	// SliceSplit renders Result.SliceMisses — the per-LLC-slice miss
	// split on hash-sliced topologies — as semicolon-joined counts
	// ("1200;1180;1210;1195", slice order). Empty on unsliced
	// topologies and sampled rows, matching the sim-side contract.
	SliceSplit string `json:"slice_split,omitempty"`

	// Fidelity reports how the row's counters were produced: "full"
	// (every reference detail-simulated) or "sampled" (representative
	// windows, extrapolated). The sampling counters below are zero on
	// full-fidelity rows.
	Fidelity string `json:"fidelity"`
	// WarmupRefs counts functional warm-up and pre-touch references that
	// populated state without booking cycles.
	WarmupRefs uint64 `json:"warmup_refs"`
	// SampledWindows counts measured nest windows.
	SampledWindows uint64 `json:"sampled_windows"`
	// SampledIters and RepresentedIters are the detail-simulated and
	// extrapolated-to outer-iteration totals; their ratio is the
	// effective sampling rate.
	SampledIters     uint64 `json:"sampled_iters"`
	RepresentedIters uint64 `json:"represented_iters"`
}

// FromResult flattens a result.
func FromResult(r *sim.Result, prefetch bool) Row {
	tot := func(f func(*sim.CPUStats) uint64) uint64 { return r.Total(f) }
	return Row{
		Workload: r.Workload,
		Machine:  r.Machine,
		Policy:   r.Policy,
		CPUs:     r.NumCPUs,
		Prefetch: prefetch,
		Wall:     r.WallCycles,
		Combined: r.CombinedCycles(),
		MCPI:     r.MCPI(),
		BusUtil:  r.BusUtilization(),

		Instructions:         tot(func(s *sim.CPUStats) uint64 { return s.Instructions }),
		ExecCycles:           tot(func(s *sim.CPUStats) uint64 { return s.ExecCycles }),
		MemStall:             tot((*sim.CPUStats).MemStallCycles),
		Overhead:             tot((*sim.CPUStats).OverheadCycles),
		L2Misses:             tot(func(s *sim.CPUStats) uint64 { return s.L2Misses }),
		ColdMisses:           tot(func(s *sim.CPUStats) uint64 { return s.ColdMisses }),
		ConflictMisses:       tot(func(s *sim.CPUStats) uint64 { return s.ConflictMisses }),
		CapacityMisses:       tot(func(s *sim.CPUStats) uint64 { return s.CapacityMisses }),
		TrueSharing:          tot(func(s *sim.CPUStats) uint64 { return s.TrueShareMisses }),
		FalseSharing:         tot(func(s *sim.CPUStats) uint64 { return s.FalseShareMisses }),
		PageFaults:           r.PageFaults,
		HintedFaults:         r.HintedFaults,
		HonoredHints:         r.HonoredHints,
		Recolorings:          tot(func(s *sim.CPUStats) uint64 { return s.Recolorings }),
		ContextSwitches:      tot(func(s *sim.CPUStats) uint64 { return s.ContextSwitches }),
		CrossDomainConflicts: tot(func(s *sim.CPUStats) uint64 { return s.CrossDomainConflicts }),
		Isolated:             r.Isolated,

		InstMisses:        tot(func(s *sim.CPUStats) uint64 { return s.InstMisses }),
		Upgrades:          tot(func(s *sim.CPUStats) uint64 { return s.Upgrades }),
		TLBMisses:         tot(func(s *sim.CPUStats) uint64 { return s.TLBMisses }),
		PrefetchesIssued:  tot(func(s *sim.CPUStats) uint64 { return s.PrefetchesIssued }),
		PrefetchesDropped: tot(func(s *sim.CPUStats) uint64 { return s.PrefetchesDropped }),
		PrefetchedHits:    tot(func(s *sim.CPUStats) uint64 { return s.PrefetchedHits }),
		RemoteSupplies:    tot(func(s *sim.CPUStats) uint64 { return s.RemoteSupplies }),
		BusQueueCycles:    tot(func(s *sim.CPUStats) uint64 { return s.BusQueueCycles }),
		WriteBufferStall:  tot(func(s *sim.CPUStats) uint64 { return s.StallWriteBuffer }),
		CPUPageFaults:     tot(func(s *sim.CPUStats) uint64 { return s.PageFaults }),

		SliceSplit: sliceSplit(r.SliceMisses),

		Fidelity:         r.Fidelity,
		WarmupRefs:       r.WarmupRefs,
		SampledWindows:   r.SampledWindows,
		SampledIters:     r.SampledIters,
		RepresentedIters: r.RepresentedIters,
	}
}

// sliceSplit joins per-slice miss counts with semicolons (CSV-safe);
// empty when the result carries no split.
func sliceSplit(misses []uint64) string {
	var b []byte
	for i, m := range misses {
		if i > 0 {
			b = append(b, ';')
		}
		b = fmt.Append(b, m)
	}
	return string(b)
}

// column couples a CSV header name with its Row formatter. Header and
// record are both generated from this one table, so their order cannot
// drift apart (the bug the old hand-maintained pair invited: counters
// that CPUStats tracked but no column carried).
type column struct {
	name  string
	value func(*Row) string
}

func u(f func(*Row) uint64) func(*Row) string {
	return func(r *Row) string { return fmt.Sprint(f(r)) }
}

var columns = []column{
	{"workload", func(r *Row) string { return r.Workload }},
	{"machine", func(r *Row) string { return r.Machine }},
	{"policy", func(r *Row) string { return r.Policy }},
	{"proc", func(r *Row) string { return r.Proc }},
	{"cpus", func(r *Row) string { return fmt.Sprint(r.CPUs) }},
	{"prefetch", func(r *Row) string { return fmt.Sprint(r.Prefetch) }},
	{"wall_cycles", u(func(r *Row) uint64 { return r.Wall })},
	{"combined_cycles", u(func(r *Row) uint64 { return r.Combined })},
	{"mcpi", func(r *Row) string { return fmt.Sprintf("%.4f", r.MCPI) }},
	{"bus_utilization", func(r *Row) string { return fmt.Sprintf("%.4f", r.BusUtil) }},
	{"instructions", u(func(r *Row) uint64 { return r.Instructions })},
	{"exec_cycles", u(func(r *Row) uint64 { return r.ExecCycles })},
	{"mem_stall_cycles", u(func(r *Row) uint64 { return r.MemStall })},
	{"overhead_cycles", u(func(r *Row) uint64 { return r.Overhead })},
	{"l2_misses", u(func(r *Row) uint64 { return r.L2Misses })},
	{"cold_misses", u(func(r *Row) uint64 { return r.ColdMisses })},
	{"conflict_misses", u(func(r *Row) uint64 { return r.ConflictMisses })},
	{"capacity_misses", u(func(r *Row) uint64 { return r.CapacityMisses })},
	{"true_sharing_misses", u(func(r *Row) uint64 { return r.TrueSharing })},
	{"false_sharing_misses", u(func(r *Row) uint64 { return r.FalseSharing })},
	{"page_faults", u(func(r *Row) uint64 { return r.PageFaults })},
	{"hinted_faults", u(func(r *Row) uint64 { return r.HintedFaults })},
	{"honored_hints", u(func(r *Row) uint64 { return r.HonoredHints })},
	{"recolorings", u(func(r *Row) uint64 { return r.Recolorings })},
	{"context_switches", u(func(r *Row) uint64 { return r.ContextSwitches })},
	{"cross_domain_conflicts", u(func(r *Row) uint64 { return r.CrossDomainConflicts })},
	{"isolated", func(r *Row) string { return fmt.Sprint(r.Isolated) }},
	{"inst_misses", u(func(r *Row) uint64 { return r.InstMisses })},
	{"upgrades", u(func(r *Row) uint64 { return r.Upgrades })},
	{"tlb_misses", u(func(r *Row) uint64 { return r.TLBMisses })},
	{"prefetches_issued", u(func(r *Row) uint64 { return r.PrefetchesIssued })},
	{"prefetches_dropped", u(func(r *Row) uint64 { return r.PrefetchesDropped })},
	{"prefetched_hits", u(func(r *Row) uint64 { return r.PrefetchedHits })},
	{"remote_supplies", u(func(r *Row) uint64 { return r.RemoteSupplies })},
	{"bus_queue_cycles", u(func(r *Row) uint64 { return r.BusQueueCycles })},
	{"write_buffer_stall", u(func(r *Row) uint64 { return r.WriteBufferStall })},
	{"cpu_page_faults", u(func(r *Row) uint64 { return r.CPUPageFaults })},
	{"slice_split", func(r *Row) string { return r.SliceSplit }},
	{"fidelity", func(r *Row) string { return r.Fidelity }},
	{"warmup_refs", u(func(r *Row) uint64 { return r.WarmupRefs })},
	{"sampled_windows", u(func(r *Row) uint64 { return r.SampledWindows })},
	{"sampled_iters", u(func(r *Row) uint64 { return r.SampledIters })},
	{"represented_iters", u(func(r *Row) uint64 { return r.RepresentedIters })},
}

// Header returns the CSV column names in emission order.
func Header() []string {
	names := make([]string, len(columns))
	for i, c := range columns {
		names[i] = c.name
	}
	return names
}

func (r Row) record() []string {
	rec := make([]string, len(columns))
	for i, c := range columns {
		rec[i] = c.value(&r)
	}
	return rec
}

// WriteCSV emits a header plus one record per row.
func WriteCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(Header()); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r.record()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the rows as a JSON array.
func WriteJSON(w io.Writer, rows []Row) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// WriteColorCSV emits the collector's per-color miss attribution: one
// record per color with the class split, attributed stall cycles, and
// the end-of-run mapped/free frame counts.
func WriteColorCSV(w io.Writer, c *obs.Collector) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"color", "mapped_pages", "free_frames",
		"cold", "conflict", "capacity", "true_share", "false_share", "inst_fetch",
		"total", "stall_cycles",
	}); err != nil {
		return err
	}
	perColor := c.PerColor()
	stall := c.ColorStall()
	for color := range perColor {
		cc := &perColor[color]
		mapped, free := 0, 0
		if color < len(c.ColorMapped) {
			mapped = c.ColorMapped[color]
		}
		if color < len(c.ColorFree) {
			free = c.ColorFree[color]
		}
		rec := []string{
			fmt.Sprint(color), fmt.Sprint(mapped), fmt.Sprint(free),
			fmt.Sprint(cc[obs.Cold]), fmt.Sprint(cc[obs.Conflict]), fmt.Sprint(cc[obs.Capacity]),
			fmt.Sprint(cc[obs.TrueShare]), fmt.Sprint(cc[obs.FalseShare]), fmt.Sprint(cc[obs.InstFetch]),
			fmt.Sprint(cc.Total()), fmt.Sprint(stall[color]),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePageCSV emits the collector's k hottest pages, one record per
// virtual page with its class split and attributed stall.
func WritePageCSV(w io.Writer, c *obs.Collector, k int) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"vpn", "color",
		"cold", "conflict", "capacity", "true_share", "false_share", "inst_fetch",
		"total", "stall_cycles",
	}); err != nil {
		return err
	}
	for _, p := range c.TopPages(k) {
		rec := []string{
			fmt.Sprint(p.VPN), fmt.Sprint(p.Color),
			fmt.Sprint(p.Misses[obs.Cold]), fmt.Sprint(p.Misses[obs.Conflict]), fmt.Sprint(p.Misses[obs.Capacity]),
			fmt.Sprint(p.Misses[obs.TrueShare]), fmt.Sprint(p.Misses[obs.FalseShare]), fmt.Sprint(p.Misses[obs.InstFetch]),
			fmt.Sprint(p.Misses.Total()), fmt.Sprint(p.StallCycles),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
