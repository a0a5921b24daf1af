package sim

import (
	"math/rand"
	"testing"
)

// scanMin is the linear scan the winner tree replaces: the lowest-index
// live runner other than skip with the strictly smallest clock, -1 when
// none is live.
func scanMin(clocks []uint64, done []bool, skip int) int {
	best := -1
	for i := range clocks {
		if done[i] || i == skip {
			continue
		}
		if best < 0 || clocks[i] < clocks[best] {
			best = i
		}
	}
	return best
}

// TestWinnerTreeMatchesScan drives the tree the way runParallel does —
// step the winner, replay its leaf, retire drained runners, reload every
// key after an out-of-band bump of the other clocks — and checks each
// pick, and the runner-up's key, against the linear scan. Small clock
// increments (often zero) make ties common.
func TestWinnerTreeMatchesScan(t *testing.T) {
	var tree winnerTree
	pack := func(i int, clock uint64) uint64 {
		t.Helper()
		key, err := tree.key(i, clock)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	for _, n := range []int{1, 2, 3, 5, 8, 16, 17, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		clocks := make([]uint64, n)
		done := make([]bool, n)
		tree.reset(n)
		for i := range clocks {
			clocks[i] = uint64(rng.Intn(4))
			tree.set(i, pack(i, clocks[i]))
		}
		tree.rebuild()
		for step := 0; ; step++ {
			want := scanMin(clocks, done, -1)
			got, live := tree.min()
			if want < 0 {
				if live {
					t.Fatalf("n=%d step %d: tree picked %d with every runner done", n, step, got)
				}
				break
			}
			if !live || got != want {
				t.Fatalf("n=%d step %d: tree picked %d (live %v), scan picked %d (clock %d)", n, step, got, live, want, clocks[want])
			}
			wantUp := doneKey
			if j := scanMin(clocks, done, got); j >= 0 {
				wantUp = pack(j, clocks[j])
			}
			if up := tree.runnerUp(got); up != wantUp {
				t.Fatalf("n=%d step %d: runner-up key %#x, scan wants %#x", n, step, up, wantUp)
			}
			clocks[got] += uint64(rng.Intn(3))
			key := pack(got, clocks[got])
			if rng.Intn(200) == 0 {
				done[got] = true
				key = doneKey
			}
			if rng.Intn(50) != 0 {
				tree.update(got, key)
				continue
			}
			// Out-of-band bump: every other live clock advances.
			tree.set(got, key)
			for i := range clocks {
				if i != got {
					clocks[i] += uint64(rng.Intn(3))
				}
				if !done[i] {
					tree.set(i, pack(i, clocks[i]))
				}
			}
			tree.rebuild()
		}
	}
}

// TestWinnerTreeClockBound checks the packing limit at every tree size
// up to 64: the largest accepted clock packs below doneKey at every
// leaf and still wins against nothing but done leaves, one more is
// rejected, and equal maximal clocks go to the lowest leaf.
func TestWinnerTreeClockBound(t *testing.T) {
	var tree winnerTree
	for n := 1; n <= 64; n++ {
		tree.reset(n)
		limit := tree.maxClock
		for i := 0; i < n; i++ {
			key, err := tree.key(i, limit)
			if err != nil {
				t.Fatalf("n=%d leaf %d: largest clock %d rejected: %v", n, i, limit, err)
			}
			if key == doneKey {
				t.Fatalf("n=%d leaf %d: clock %d packs to doneKey", n, i, limit)
			}
			if key>>tree.shift != limit || int(key&(1<<tree.shift-1)) != i {
				t.Fatalf("n=%d leaf %d: key %#x does not unpack to (%d, %d)", n, i, key, limit, i)
			}
			if _, err := tree.key(i, limit+1); err == nil {
				t.Fatalf("n=%d leaf %d: clock %d accepted past the limit", n, i, limit+1)
			}
		}
		if _, err := tree.key(0, doneKey); err == nil {
			t.Fatalf("n=%d: clock doneKey accepted", n)
		}
		// Only the last leaf live, at the limit: it must win.
		key, _ := tree.key(n-1, limit)
		tree.update(n-1, key)
		if got, live := tree.min(); !live || got != n-1 {
			t.Fatalf("n=%d: lone runner at the limit: picked %d (live %v), want %d", n, got, live, n-1)
		}
		for i := 0; i < n; i++ {
			key, _ := tree.key(i, limit)
			tree.set(i, key)
		}
		tree.rebuild()
		if got, live := tree.min(); !live || got != 0 {
			t.Fatalf("n=%d: all runners at the limit: picked %d (live %v), want 0", n, got, live)
		}
	}
}
