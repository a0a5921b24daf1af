package harness

import (
	"runtime"
	"testing"
)

// TestAllocationBudget bounds the bytes one sampled job and one full
// run allocate, read from runtime.MemStats.TotalAlloc around Run. Bytes
// allocated repeat from run to run up to map-hash jitter (a few parts
// in ten thousand), so the test takes no timing and cannot fail on host
// noise. Each budget is about 1.25x the recorded figure:
//
//   - swim/cdpc/8 sampled: 491,328 bytes (501,688 while the frame
//     allocator booked every frame's owning pid in a map; 587,576
//     while every directory line kept a row of word writers and the
//     shadow's slots were 16 B; 779,900 while every color's free
//     frames sat in an explicit list, a cache way took 16 B and a word
//     writer a byte;
//     1,135,300 while the directory's masks were 64 bits wide and the
//     shadow's index a flat.Map; 2,198,700 when the directory still
//     grew its slabs by copying);
//   - tomcatv/cdpc/16 full: 647,328 bytes (666,648, 887,096,
//     1,063,000, 1,480,800 and 2,545,800 at those five earlier points).
//
// Under -race the figures read up to 4% higher, inside the budgets.
// Nothing else allocates while the test runs: no test in the package
// runs in parallel.
func TestAllocationBudget(t *testing.T) {
	for _, c := range []struct {
		spec   Spec
		budget uint64
	}{
		{Spec{Workload: "swim", Variant: CDPC, CPUs: 8, Sampled: true}, 614_000},
		{Spec{Workload: "tomcatv", Variant: CDPC, CPUs: 16}, 809_000},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(c.spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > c.budget {
			t.Errorf("%s/%s/%d sampled=%v allocated %d bytes, budget %d", c.spec.Workload, c.spec.Variant, c.spec.CPUs, c.spec.Sampled, got, c.budget)
		}
	}
}
