package main

import (
	"container/list"
	"math/rand/v2"
	"time"
)

// Host-speed yardstick. On a shared machine the simulator's speed swings
// up to twofold for minutes at a time while other tenants contend for
// the host's caches. A pure ALU loop or a DRAM-bound pointer chase does
// not follow those swings; a kernel with the simulator's own shape does.
// The yardstick is such a kernel, frozen here so that no change to the
// repository can speed it up: a map-indexed LRU stack and a line
// directory driven by a skewed random line stream, about 2 MiB of maps
// and list nodes. Every timed stretch of the benchmark is preceded by
// one fixed chunk of it, and the stretch's host time is rescaled by
// refChunk / (that chunk's time). The reported times are therefore
// those of a host on which one chunk takes refChunk.
type yardstick struct {
	lru    *list.List
	idx    map[uint64]*list.Element
	dir    map[uint64]uint32
	rng    *rand.Rand
	n      int
	factor float64 // refChunk / the last chunk's time
}

const (
	// yardChunkOps is one chunk's line references.
	yardChunkOps = 200_000
	// refChunk is the chunk time the reported times are rescaled to,
	// about what a chunk takes on a quiet 2-vCPU x86-64 host.
	refChunk = 50 * time.Millisecond
	// Shape of the kernel: an LRU stack of yardLRULines over a stream
	// that draws 80% of its lines from a hot set of yardHotLines and the
	// rest from yardAllLines.
	yardLRULines = 4 << 10
	yardHotLines = 6 << 10
	yardAllLines = 48 << 10
)

// newYardstick builds the kernel, fills it and times a first chunk.
func newYardstick() *yardstick {
	y := &yardstick{lru: list.New(), idx: map[uint64]*list.Element{}, dir: map[uint64]uint32{}, rng: rand.New(rand.NewPCG(1, 1))}
	for range 8 {
		y.run()
	}
	y.calibrate()
	return y
}

// run references one chunk of lines.
func (y *yardstick) run() {
	for range yardChunkOps {
		y.n++
		line := y.rng.Uint64N(yardAllLines)
		if y.rng.IntN(10) < 8 {
			line = y.rng.Uint64N(yardHotLines)
		}
		y.dir[line] ^= uint32(y.n)
		if e, ok := y.idx[line]; ok {
			y.lru.MoveToFront(e)
			continue
		}
		y.idx[line] = y.lru.PushFront(line)
		if y.lru.Len() > yardLRULines {
			b := y.lru.Back()
			delete(y.idx, b.Value.(uint64))
			y.lru.Remove(b)
		}
	}
}

// calibrate times one chunk and sets the rescaling factor from it.
func (y *yardstick) calibrate() {
	start := time.Now()
	y.run()
	y.factor = float64(refChunk) / float64(time.Since(start))
}

// scale rescales a host duration to the reference host speed.
func (y *yardstick) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * y.factor)
}
