package sim

// winnerTree is a tournament tree over the parallel event loop's
// runners: it yields the runner with the smallest key, ties going to
// the lowest index, exactly what a strict-< linear scan finds. Keys are
// stored inline (a runner's clock, or doneKey once its stream is
// drained); changing one key replays only that leaf's path to the root.
type winnerTree struct {
	// keys holds one key per leaf, padded with doneKey to a power of
	// two.
	keys []uint64
	// win[k] is the leaf winning node k's subtree. Leaves are nodes
	// [len(keys), 2*len(keys)), internal nodes [1, len(keys)), and node
	// k's children are 2k and 2k+1.
	win []int32
}

// doneKey marks a runner whose stream is drained; it never wins while
// a live runner remains.
const doneKey = ^uint64(0)

// reset sizes the tree for n leaves, all doneKey.
func (t *winnerTree) reset(n int) {
	size := 1
	for size < n {
		size *= 2
	}
	if cap(t.keys) < size {
		t.keys = make([]uint64, size)
		t.win = make([]int32, 2*size)
	}
	t.keys, t.win = t.keys[:size], t.win[:2*size]
	for i := range t.keys {
		t.keys[i] = doneKey
		t.win[size+i] = int32(i)
	}
}

// better returns the winner of a match between leaves a < b.
func (t *winnerTree) better(a, b int32) int32 {
	if t.keys[b] < t.keys[a] {
		return b
	}
	return a
}

// rebuild replays every match from the current keys.
func (t *winnerTree) rebuild() {
	for k := len(t.keys) - 1; k >= 1; k-- {
		t.win[k] = t.better(t.win[2*k], t.win[2*k+1])
	}
}

// update sets leaf i's key and replays the matches on its path. Only
// the path's winner changes, so each level plays it against the
// sibling subtree's standing winner.
func (t *winnerTree) update(i int, key uint64) {
	t.keys[i] = key
	w, wk := int32(i), key
	for k := len(t.keys) + i; k > 1; k >>= 1 {
		s := t.win[k^1]
		if sk := t.keys[s]; sk < wk || sk == wk && s < w {
			w, wk = s, sk
		}
		t.win[k>>1] = w
	}
}

// min returns the winning leaf and its key.
func (t *winnerTree) min() (int, uint64) {
	i := t.win[1]
	return int(i), t.keys[i]
}
