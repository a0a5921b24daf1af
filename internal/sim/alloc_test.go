package sim

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestStepAllocatesNothing steps a warmed 16-CPU machine through one
// tomcatv time step, region by region with the CPUs interleaved, and
// requires the pass to allocate nothing: the TLB, the coherence
// directory and the CPU's outcome are all updated in place once the
// pages are mapped and the directory's blocks exist. The pass must
// invalidate shared copies, so the directory's invalidation list is on
// the measured path.
func TestStepAllocatesNothing(t *testing.T) {
	const ncpu = 16
	meta, err := workloads.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	prog := meta.Build(workloads.DefaultScale)
	m := newMachine(t, arch.Base(ncpu, workloads.DefaultScale))
	var regions [][ncpu][]trace.Ref
	total := 0
	for _, ph := range ProgramSource(prog).Phases() {
		for _, reg := range ph.Regions {
			if !reg.Parallel() {
				continue
			}
			var refs [ncpu][]trace.Ref
			for cpu := range refs {
				s := reg.Stream(ncpu, cpu)
				for r := (trace.Ref{}); s.Next(&r); {
					refs[cpu] = append(refs[cpu], r)
					total++
				}
			}
			regions = append(regions, refs)
		}
	}
	pass := func() {
		for _, refs := range regions {
			for k := 0; ; k++ {
				stepped := false
				for cpu, rs := range refs {
					if k >= len(rs) {
						continue
					}
					if err := m.step(m.cpus[cpu], &rs[k]); err != nil {
						t.Fatalf("cpu %d ref %d: %v", cpu, k, err)
					}
					stepped = true
				}
				if !stepped {
					break
				}
			}
		}
	}
	// sharing counts cpu 0's upgrades and sharing misses, each of which
	// follows an invalidation.
	sharing := func() uint64 {
		s := &m.cpus[0].stats
		return s.Upgrades + s.TrueShareMisses + s.FalseShareMisses
	}
	pass() // warm: fault the pages in and grow the directory
	before := sharing()
	if allocs := testing.AllocsPerRun(1, pass); allocs != 0 {
		t.Errorf("a pass of %d references allocates %v times, want 0", total, allocs)
	}
	if sharing() == before {
		t.Error("the measured passes saw no upgrade or sharing miss on cpu 0")
	}
}
