package sim

import (
	"math/rand"
	"testing"
)

// scanMin is the linear scan the winner tree replaces: the lowest-index
// live runner with the strictly smallest clock, -1 when none is live.
func scanMin(clocks []uint64, done []bool) int {
	best := -1
	for i := range clocks {
		if done[i] {
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
// pick against the linear scan. Small clock increments (often zero)
// make ties common.
func TestWinnerTreeMatchesScan(t *testing.T) {
	var tree winnerTree
	for _, n := range []int{1, 2, 3, 5, 8, 16, 17, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		clocks := make([]uint64, n)
		done := make([]bool, n)
		tree.reset(n)
		for i := range clocks {
			clocks[i] = uint64(rng.Intn(4))
			tree.keys[i] = clocks[i]
		}
		tree.rebuild()
		for step := 0; ; step++ {
			want := scanMin(clocks, done)
			got, key := tree.min()
			if want < 0 {
				if key != doneKey {
					t.Fatalf("n=%d step %d: tree picked %d with every runner done", n, step, got)
				}
				break
			}
			if got != want || key != clocks[want] {
				t.Fatalf("n=%d step %d: tree picked %d (key %d), scan picked %d (clock %d)", n, step, got, key, want, clocks[want])
			}
			clocks[got] += uint64(rng.Intn(3))
			key = clocks[got]
			if rng.Intn(200) == 0 {
				done[got] = true
				key = doneKey
			}
			if rng.Intn(50) != 0 {
				tree.update(got, key)
				continue
			}
			// Out-of-band bump: every other live clock advances.
			tree.keys[got] = key
			for i := range clocks {
				if i != got {
					clocks[i] += uint64(rng.Intn(3))
				}
				if !done[i] {
					tree.keys[i] = clocks[i]
				}
			}
			tree.rebuild()
		}
	}
}
