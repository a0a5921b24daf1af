package flat

import (
	"container/list"
	"slices"
	"testing"
)

// refLRU is the reference LRU: a container/list in recency order, front
// most recent, searched linearly. Do not optimize it.
type refLRU struct {
	capacity int
	order    *list.List
}

func (r *refLRU) find(k uint64) *list.Element {
	for e := r.order.Front(); e != nil; e = e.Next() {
		if e.Value.(uint64) == k {
			return e
		}
	}
	return nil
}

// touch makes k the most recent key and returns whether it was
// resident, and the key it evicted (ok false when none).
func (r *refLRU) touch(k uint64) (hit bool, evicted uint64, ok bool) {
	if e := r.find(k); e != nil {
		r.order.MoveToFront(e)
		return true, 0, false
	}
	if r.order.Len() == r.capacity {
		evicted, ok = r.order.Remove(r.order.Back()).(uint64), true
	}
	r.order.PushFront(k)
	return false, evicted, ok
}

func (r *refLRU) remove(k uint64) {
	if e := r.find(k); e != nil {
		r.order.Remove(e)
	}
}

// keys returns the reference's keys, most recent first.
func (r *refLRU) keys() []uint64 {
	var ks []uint64
	for e := r.order.Front(); e != nil; e = e.Next() {
		ks = append(ks, e.Value.(uint64))
	}
	return ks
}

// lruKeys walks l's recency list from head to tail, checking each back
// link against the walk, and returns its keys, most recent first.
func lruKeys(t *testing.T, l *LRU) []uint64 {
	t.Helper()
	var ks []uint64
	prev := int32(-1)
	for i := l.head; i >= 0; i = l.slots[i].next {
		if l.slots[i].prev != prev {
			t.Fatalf("slot %d links back to %d, want %d", i, l.slots[i].prev, prev)
		}
		if len(ks) > cap(l.slots) {
			t.Fatalf("recency list longer than the capacity %d: a cycle", cap(l.slots))
		}
		ks = append(ks, l.slots[i].key)
		prev = i
	}
	if l.tail != prev {
		t.Fatalf("tail is slot %d, the walk ends at %d", l.tail, prev)
	}
	return ks
}

// lruKey decodes a key byte under a stride byte: small keys, key 0
// among them, strided line and page addresses, and keys that differ
// only in their top byte, which the index hashes onto few slots.
func lruKey(stride, b byte) uint64 {
	switch stride % 4 {
	case 0:
		return uint64(b % 16)
	case 1:
		return uint64(b) << 7
	case 2:
		return uint64(b) << 12
	default:
		return uint64(b) << 56
	}
}

// FuzzLRU decodes the input as a capacity byte (1 to 64 keys) followed
// by (op, stride, key) triples, replays Touch, Remove, Clear and Len on
// an LRU and on the reference, and after every operation compares the
// hit result, the evicted key and the whole recency order.
func FuzzLRU(f *testing.F) {
	f.Add([]byte{})
	// Capacity 1: key 0 touched, displaced by key 0's neighbour, removed
	// and touched again.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 10, 0, 0, 0, 0, 0, 12, 0, 1, 0, 0, 0})
	// Capacity 4, keys that differ only in their top byte.
	seq := []byte{3}
	for i := 0; i < 120; i++ {
		seq = append(seq, byte(i*5%16), 3, byte(i*7%9))
	}
	f.Add(seq)
	// Capacity 64 over a working set that swings past it and back.
	seq = []byte{63}
	for i := 0; i < 600; i++ {
		seq = append(seq, byte(i*11%16), byte(i%3), byte(i*i%97))
	}
	f.Add(seq)
	// Capacity 7 with a Clear midway, then refills that evict key 0.
	seq = []byte{6}
	for i := 0; i < 200; i++ {
		op := byte(i * 3 % 14)
		if i == 100 {
			op = 15
		}
		seq = append(seq, op, 0, byte(i%11))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		capacity := int(data[0]%64) + 1
		l, ref := NewLRU(capacity), &refLRU{capacity: capacity, order: list.New()}
		for i := 1; i+3 <= len(data); i += 3 {
			k := lruKey(data[i+1], data[i+2])
			switch op := data[i] % 16; {
			case op < 10:
				want, evicted, evict := ref.touch(k)
				if got := l.Touch(k); got != want {
					t.Fatalf("op %d: Touch(%#x) = %v, want %v", i, k, got, want)
				}
				if evict && slices.Contains(lruKeys(t, l), evicted) {
					t.Fatalf("op %d: Touch(%#x) kept %#x, which the reference evicted", i, k, evicted)
				}
			case op < 14:
				l.Remove(k)
				ref.remove(k)
			case op < 15:
				if got, want := l.Len(), ref.order.Len(); got != want {
					t.Fatalf("op %d: Len = %d, want %d", i, got, want)
				}
			default:
				l.Clear()
				ref.order.Init()
			}
			got, want := lruKeys(t, l), ref.keys()
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: recency order %#x, want %#x", i, got, want)
			}
			if l.Len() != len(want) {
				t.Fatalf("op %d: Len = %d, want %d", i, l.Len(), len(want))
			}
			checkIndex(t, l)
		}
	})
}

// checkIndex holds l's index to its recency list: every resident key's
// probe finds its own slot, the index has one entry per resident key,
// and every entry is reachable from its key's home without crossing an
// empty entry (the invariant backward-shift erasure maintains).
func checkIndex(t *testing.T, l *LRU) {
	t.Helper()
	for i := l.head; i >= 0; i = l.slots[i].next {
		if _, j := l.find(l.slots[i].key); j != i+1 {
			t.Fatalf("index maps key %#x to slot %d; it lives in slot %d", l.slots[i].key, j-1, i)
		}
	}
	live := 0
	for p, j := range l.index {
		if j == 0 {
			continue
		}
		live++
		k := l.slots[j-1].key
		for q := l.home(k); q != uint64(p); q = (q + 1) & l.mask {
			if l.index[q] == 0 {
				t.Fatalf("key %#x at entry %d is cut off from its home %d by an empty entry %d", k, p, l.home(k), q)
			}
		}
	}
	if live != l.n {
		t.Fatalf("%d live index entries, %d resident keys", live, l.n)
	}
}
