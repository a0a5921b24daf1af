package sim

import "fmt"

// winnerTree is a tournament tree over the parallel event loop's
// runners: it yields the runner with the smallest clock, ties going to
// the lowest index, exactly what a strict-< linear scan finds. Every
// node holds its subtree winner as one packed key, clock<<shift | leaf,
// so a match is a single unsigned min and equal clocks resolve to the
// lower leaf index without a second compare. Changing one leaf replays
// only its path to the root.
type winnerTree struct {
	// node[k] is the packed key of node k's subtree winner. Leaves are
	// nodes [size, 2*size), padded with doneKey beyond the runners;
	// internal nodes are [1, size), and node k's children are 2k and
	// 2k+1.
	node []uint64
	// shift is log2(size): the bits a packed key keeps for the leaf.
	shift uint
	// maxClock is the largest clock whose packed key neither overflows
	// nor equals doneKey at any leaf.
	maxClock uint64
}

// doneKey marks a runner whose stream is drained; it never wins while
// a live runner remains.
const doneKey = ^uint64(0)

// reset sizes the tree for n leaves, all doneKey.
func (t *winnerTree) reset(n int) {
	size, shift := 1, uint(0)
	for size < n {
		size, shift = size*2, shift+1
	}
	if cap(t.node) < 2*size {
		t.node = make([]uint64, 2*size)
	}
	t.node = t.node[:2*size]
	for i := range t.node {
		t.node[i] = doneKey
	}
	t.shift = shift
	t.maxClock = doneKey>>shift - 1
}

// key packs leaf i's clock, refusing a clock too large to pack: it
// would wrap or collide with doneKey and silently reorder the runners.
func (t *winnerTree) key(i int, clock uint64) (uint64, error) {
	if clock > t.maxClock {
		return 0, fmt.Errorf("sim: cpu clock %d exceeds the event loop's limit %d", clock, t.maxClock)
	}
	return clock<<t.shift | uint64(i), nil
}

// set stores leaf i's packed key without replaying any match; rebuild
// must follow before the next min.
func (t *winnerTree) set(i int, key uint64) { t.node[len(t.node)/2+i] = key }

// leaf returns leaf i's packed key.
func (t *winnerTree) leaf(i int) uint64 { return t.node[len(t.node)/2+i] }

// rebuild replays every match from the current leaves.
func (t *winnerTree) rebuild() {
	for k := len(t.node)/2 - 1; k >= 1; k-- {
		t.node[k] = min(t.node[2*k], t.node[2*k+1])
	}
}

// update sets leaf i's packed key and replays the matches on its path,
// each against the sibling subtree's standing winner.
func (t *winnerTree) update(i int, key uint64) {
	node := t.node
	k := len(node)/2 + i
	node[k] = key
	for ; k > 1; k >>= 1 {
		key = min(key, node[k^1])
		node[k>>1] = key
	}
}

// runnerUp returns the smallest packed key among every leaf but i: the
// sibling subtrees on i's path to the root cover the other leaves
// exactly once. doneKey means no other runner is live.
func (t *winnerTree) runnerUp(i int) uint64 {
	r := doneKey
	for k := len(t.node)/2 + i; k > 1; k >>= 1 {
		r = min(r, t.node[k^1])
	}
	return r
}

// min returns the winning leaf, and false once every leaf is done.
func (t *winnerTree) min() (int, bool) {
	w := t.node[1]
	return int(w & (1<<t.shift - 1)), w != doneKey
}
