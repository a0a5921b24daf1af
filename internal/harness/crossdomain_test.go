package harness

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestCrossDomainConflictsPinned pins every process's and the machine
// total's CrossDomainConflicts on the three multiprocess golden mixes
// and a 2-way first-touch co-run. The golden fingerprint omits the
// counter, so without this test a change to how a victim's owner is
// found (the frame's live owner, or the evicting process's color
// partition under isolation) could move it unseen.
func TestCrossDomainConflictsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four co-scheduled simulations; skipped in -short")
	}
	mixes := []struct {
		name string
		spec Spec
		want []uint64 // per process, then the total
	}{
		{"tomcatv+swim/timeslice", Spec{Workload: "tomcatv", CPUs: 4, Scale: 32,
			CoRunners: []CoRunner{{Workload: "swim"}}, Sched: SchedTimeSlice}, []uint64{632, 632, 1264}},
		{"tomcatv+swim/partition/cdpc", Spec{Workload: "tomcatv", CPUs: 4, Scale: 32, Variant: CDPC,
			CoRunners: []CoRunner{{Workload: "swim"}}, Sched: SchedPartition}, []uint64{0, 0, 0}},
		{"tomcatv+tomcatv/isolated/cdpc", Spec{Workload: "tomcatv", CPUs: 4, Scale: 32, Variant: CDPC,
			CoRunners: []CoRunner{{}}, Isolate: true}, []uint64{0, 0, 0}},
		{"tomcatv+swim/first-touch", Spec{Workload: "tomcatv", CPUs: 4, Scale: 32, Variant: FirstTouch,
			CoRunners: []CoRunner{{Workload: "swim"}}}, []uint64{127, 127, 254}},
	}
	cross := func(r *sim.Result) uint64 {
		return r.Total(func(s *sim.CPUStats) uint64 { return s.CrossDomainConflicts })
	}
	for _, mx := range mixes {
		mr, err := RunMulti(mx.spec)
		if err != nil {
			t.Fatalf("%s: %v", mx.name, err)
		}
		var got []uint64
		for _, r := range mr.PerProcess {
			got = append(got, cross(r))
		}
		got = append(got, cross(mr.Total))
		if !slices.Equal(got, mx.want) {
			t.Errorf("%s: cross-domain conflicts (per process, total) = %v, want %v", mx.name, got, mx.want)
		}
	}
}
