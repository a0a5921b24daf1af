package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/trace"
	"repro/internal/vm"
)

// loggedStream records, in order, the CPU of every reference its
// wrapped stream yields. Every event loop fetches each CPU's first
// reference up front and the next one right after each step, so the
// shared log is the order of the steps.
type loggedStream struct {
	s   trace.Stream
	cpu int
	log *[]int
}

func (l *loggedStream) Next(r *trace.Ref) bool {
	if !l.s.Next(r) {
		return false
	}
	*l.log = append(*l.log, l.cpu)
	return true
}

// scanParallel is the event loop without a tree: before every step a
// linear scan picks the live CPU with the smallest clock, the lowest
// index winning ties. It rereads every clock each time, so a shootdown
// needs no special case.
func scanParallel(m *Machine, cpus []*cpuState, streams []trace.Stream) error {
	refs := make([]trace.Ref, len(streams))
	live := make([]bool, len(streams))
	for i, s := range streams {
		live[i] = s.Next(&refs[i])
	}
	for {
		best := -1
		for i, c := range cpus {
			if live[i] && (best < 0 || c.clock < cpus[best].clock) {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		if err := m.step(cpus[best], &refs[best]); err != nil {
			return err
		}
		live[best] = streams[best].Next(&refs[best])
	}
}

// runAheadRefs builds one CPU's references. Most are loads and stores
// to a few hot lines with little work between them, so steps advance
// the clock by one or two cycles and equal clocks are common. The rest
// touch pages every CPU shares (coherence traffic), pages one cache
// size apart (conflict misses, which drive recoloring), code and
// prefetches.
func runAheadRefs(rng *rand.Rand, cpu, n, conflictShare int) []trace.Ref {
	const page, cacheSize = 4 << 10, 64 << 10
	hot := uint64(0x100000 + cpu*2*page)
	refs := make([]trace.Ref, n)
	for i := range refs {
		r := trace.Ref{Kind: trace.Read, Size: 8, Work: uint32(rng.Intn(2))}
		if rng.Intn(4) == 0 {
			r.Kind = trace.Write
		}
		switch p := rng.Intn(100); {
		case p < conflictShare:
			r.VAddr = 0x400000 + uint64(rng.Intn(4))*cacheSize + uint64(rng.Intn(page/128))*128
		case p < conflictShare+10:
			r.VAddr = 0x800000 + uint64(rng.Intn(8*page))
		case p < conflictShare+13:
			r.Kind, r.VAddr, r.Work = trace.Inst, 0xc00000+uint64(rng.Intn(2*page)), uint32(rng.Intn(8))
		case p < conflictShare+15:
			r.Kind, r.VAddr = trace.Prefetch, 0x800000+uint64(rng.Intn(8*page))
		default:
			r.VAddr = hot + uint64(rng.Intn(4))*32
		}
		refs[i] = r
	}
	return refs
}

// runBoth runs the same references on two identical machines running
// a process placed by po, through runParallel (runStream on one CPU)
// and through scanParallel, and fails t unless the step order, every
// final clock and every CPU's stats agree. It returns the runParallel
// (runStream) machine.
func runBoth(t *testing.T, name string, opts Options, po ProcessOptions, seed int64, conflictShare int) *Machine {
	t.Helper()
	var logs [2][]int
	var machines [2]*Machine
	for side := range machines {
		m := newSolo(t, opts, po)
		var err error
		rng := rand.New(rand.NewSource(seed))
		streams := make([]trace.Stream, len(m.cpus))
		for i, c := range m.cpus {
			c.clock = uint64(rng.Intn(3))
			refs := runAheadRefs(rng, i, 200+rng.Intn(300), conflictShare)
			streams[i] = &loggedStream{s: &trace.SliceStream{Refs: refs}, cpu: i, log: &logs[side]}
		}
		switch {
		case side == 1:
			err = scanParallel(m, m.cpus, streams)
		case len(m.cpus) == 1:
			err = m.runStream(m.cpus[0], streams[0])
		default:
			err = m.runParallel(m.cpus, streams)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		machines[side] = m
	}
	got, want := logs[0], logs[1]
	for k := range min(len(got), len(want)) {
		if got[k] != want[k] {
			t.Fatalf("%s: step %d went to cpu %d, the scan picks cpu %d", name, k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d steps, the scan ran %d", name, len(got), len(want))
	}
	for i, c := range machines[0].cpus {
		w := machines[1].cpus[i]
		if c.clock != w.clock {
			t.Errorf("%s: cpu %d clock %d, the scan ends at %d", name, i, c.clock, w.clock)
		}
		if c.stats != w.stats {
			t.Errorf("%s: cpu %d stats\n%+v\nthe scan books\n%+v", name, i, c.stats, w.stats)
		}
	}
	return machines[0]
}

// TestRunAheadMatchesScan checks the event loop's run-ahead against the
// linear-scan loop on 2 to 17 CPUs, and the serial loop runStream
// against it on one CPU: the same steps in the same order, the same
// final clocks and the same stats. Each loop dispatches references its
// own way; the scan goes through step. A recoloring machine adds
// shootdowns, which must end a run and reload every key.
func TestRunAheadMatchesScan(t *testing.T) {
	for n := 1; n <= 17; n++ {
		cfg := smallConfig(n)
		m := runBoth(t, fmt.Sprintf("%d cpus", n), Options{Config: cfg}, ProcessOptions{}, int64(n), 5)
		if st := &m.cpus[0].stats; n == 1 && (st.PrefetchesIssued == 0 || !m.cpus[0].fetched) {
			t.Errorf("1 cpu: %d prefetches issued, fetched %v: the serial loop's fetch and prefetch paths are not covered",
				st.PrefetchesIssued, m.cpus[0].fetched)
		}
	}
	policy := vm.RecolorPolicy{MissThreshold: 4, MaxRecolorings: 8}
	for _, n := range []int{3, 4, 8} {
		cfg := smallConfig(n)
		po := ProcessOptions{Policy: vm.PageColoring{Colors: cfg.Colors()}, Recolor: &policy}
		name := fmt.Sprintf("recoloring on %d cpus", n)
		if m := runBoth(t, name, Options{Config: cfg}, po, int64(100+n), 40); m.shootdowns == 0 {
			t.Errorf("%s: no shootdown happened", name)
		}
	}
}
