package flat

import (
	"container/list"
	"slices"
	"testing"
	"unsafe"
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
func lruKeys[K lruKey, L lruLink](t *testing.T, l *LRU[K, L]) []uint64 {
	t.Helper()
	var ks []uint64
	prev := none[L]()
	for i := l.head; i != none[L](); i = l.slots[i].next {
		if l.slots[i].prev != prev {
			t.Fatalf("slot %d links back to %d, want %d", i, l.slots[i].prev, prev)
		}
		if len(ks) > cap(l.slots) {
			t.Fatalf("recency list longer than the capacity %d: a cycle", cap(l.slots))
		}
		ks = append(ks, uint64(l.slots[i].key))
		prev = i
	}
	if l.tail != prev {
		t.Fatalf("tail is slot %d, the walk ends at %d", l.tail, prev)
	}
	return ks
}

// lruKeyOf decodes a key byte under a stride byte: small keys, key 0
// among them, strided line and page addresses, and keys that differ
// only in their top byte, which the index hashes onto few slots. top is
// the key width in bits.
func lruKeyOf(stride, b byte, top int) uint64 {
	switch stride % 4 {
	case 0:
		return uint64(b % 16)
	case 1:
		return uint64(b) << 7
	case 2:
		return uint64(b) << 12
	default:
		return uint64(b) << (top - 8)
	}
}

// FuzzLRU decodes the input as a capacity byte (1 to 64 keys) followed
// by (op, stride, key) triples, replays Touch, Remove, Clear and Len on
// a WideLRU, a NarrowLRU and the reference, and after every operation
// compares the hit result, the evicted key and the whole recency order.
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
		diffLRU(t, NewLRU[uint64, int32](int(data[0]%64)+1), data)
		diffLRU(t, NewLRU[uint32, uint16](int(data[0]%64)+1), data)
	})
}

// diffLRU replays FuzzLRU's input data on l, whose capacity is data's
// first byte, and on the reference.
func diffLRU[K lruKey, L lruLink](t *testing.T, l *LRU[K, L], data []byte) {
	t.Helper()
	top := int(unsafe.Sizeof(K(0))) * 8
	ref := &refLRU{capacity: cap(l.slots), order: list.New()}
	for i := 1; i+3 <= len(data); i += 3 {
		k := lruKeyOf(data[i+1], data[i+2], top)
		switch op := data[i] % 16; {
		case op < 10:
			want, evicted, evict := ref.touch(k)
			if got := l.Touch(K(k)); got != want {
				t.Fatalf("%d-bit keys, op %d: Touch(%#x) = %v, want %v", top, i, k, got, want)
			}
			if evict && slices.Contains(lruKeys(t, l), evicted) {
				t.Fatalf("%d-bit keys, op %d: Touch(%#x) kept %#x, which the reference evicted", top, i, k, evicted)
			}
		case op < 14:
			l.Remove(K(k))
			ref.remove(k)
		case op < 15:
			if got, want := l.Len(), ref.order.Len(); got != want {
				t.Fatalf("%d-bit keys, op %d: Len = %d, want %d", top, i, got, want)
			}
		default:
			l.Clear()
			ref.order.Init()
		}
		got, want := lruKeys(t, l), ref.keys()
		if !slices.Equal(got, want) {
			t.Fatalf("%d-bit keys, op %d: recency order %#x, want %#x", top, i, got, want)
		}
		if l.Len() != len(want) {
			t.Fatalf("%d-bit keys, op %d: Len = %d, want %d", top, i, l.Len(), len(want))
		}
		checkIndex(t, l)
	}
}

// checkIndex holds l's index to its recency list: every resident key's
// probe finds its own slot, the index has one entry per resident key,
// and every entry is reachable from its key's home without crossing an
// empty entry (the invariant backward-shift erasure maintains).
func checkIndex[K lruKey, L lruLink](t *testing.T, l *LRU[K, L]) {
	t.Helper()
	for i := l.head; i != none[L](); i = l.slots[i].next {
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

// TestNarrowLRUAtItsLimit fills a NarrowLRU of MaxNarrowLRU keys, twice
// over so that every slot is evicted and reused, removes keys from the
// top of the slot range and refills them: slot numbers up to
// MaxNarrowLRU-1 and index entries up to MaxNarrowLRU must never be
// taken for the no-slot link. A NarrowLRU one key larger is refused.
func TestNarrowLRUAtItsLimit(t *testing.T) {
	const n = MaxNarrowLRU
	l := NewLRU[uint32, uint16](n)
	for k := range uint32(2 * n) {
		if l.Touch(k * 3) {
			t.Fatalf("first touch of key %d hit", k*3)
		}
	}
	if l.Len() != n || l.slots[l.head].key != (2*n-1)*3 || l.slots[l.tail].key != n*3 {
		t.Fatalf("after %d keys: Len %d, head key %d, tail key %d", 2*n, l.Len(), l.slots[l.head].key, l.slots[l.tail].key)
	}
	for k := uint32(2*n - 10); k < 2*n; k++ {
		l.Remove(k * 3)
	}
	for k := uint32(n); k < n+10; k++ {
		if !l.Touch(k * 3) {
			t.Fatalf("resident key %d missed", k*3)
		}
	}
	for k := uint32(2*n - 10); k < 2*n; k++ {
		if l.Touch(k * 3) {
			t.Fatalf("removed key %d hit", k*3)
		}
	}
	if l.Len() != n {
		t.Fatalf("Len %d, want %d", l.Len(), n)
	}
	checkIndex(t, l)
	if got := len(lruKeys(t, l)); got != n {
		t.Fatalf("recency list of %d keys, want %d", got, n)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("NewLRU[uint32, uint16](%d) did not panic", n+1)
		}
	}()
	NewLRU[uint32, uint16](n + 1)
}
