package flat

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// check holds m to the reference map ref: same size, same entries, and
// every stored key reachable from its home slot without crossing an
// empty slot (the invariant backward-shift deletion maintains).
func check(t *testing.T, m *Map, ref map[uint64]uint64) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := m.Get(k); !ok || got != want {
			t.Fatalf("Get(%#x) = %d, %v; want %d, true", k, got, ok, want)
		}
	}
	keys := m.Keys()
	if len(keys) != len(ref) {
		t.Fatalf("Keys has %d keys, want %d", len(keys), len(ref))
	}
	for _, k := range keys {
		if _, ok := ref[k]; !ok {
			t.Fatalf("Keys returned %#x, which is not in the map", k)
		}
	}
	live := 0
	for i, s := range m.slots {
		if s.key == 0 {
			continue
		}
		live++
		for j := m.home(s.key); j != uint64(i); j = (j + 1) & m.mask {
			if m.slots[j].key == 0 {
				t.Fatalf("key %#x in slot %d is cut off from its home %d by an empty slot %d", s.key, i, m.home(s.key), j)
			}
		}
	}
	if live != m.n {
		t.Fatalf("%d live slots, n = %d", live, m.n)
	}
}

// apply runs one operation on both maps and checks that they agree on
// its result.
func apply(t *testing.T, m *Map, ref map[uint64]uint64, op byte, k, v uint64) {
	t.Helper()
	switch op % 3 {
	case 0:
		m.Put(k, v)
		ref[k] = v
	case 1:
		_, want := ref[k]
		if got := m.Delete(k); got != want {
			t.Fatalf("Delete(%#x) = %v, want %v", k, got, want)
		}
		delete(ref, k)
	default:
		want, wantOK := ref[k]
		if got, ok := m.Get(k); ok != wantOK || got != want {
			t.Fatalf("Get(%#x) = %d, %v; want %d, %v", k, got, ok, want, wantOK)
		}
	}
}

// TestAgainstGoMap drives random Put/Get/Delete sequences over small key
// universes (dense collisions, repeated deletes, key 0) and over strided
// line-address keys, growing from the zero value.
func TestAgainstGoMap(t *testing.T) {
	for _, tc := range []struct {
		name     string
		universe uint64
		stride   uint64
	}{
		{"dense", 40, 1},
		{"lines", 3000, 128},
		{"pages", 500, 4096},
		{"wide", 1 << 62, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var m Map
			ref := map[uint64]uint64{}
			for i := 0; i < 20000; i++ {
				k := uint64(rng.Int63n(int64(tc.universe))) * tc.stride
				apply(t, &m, ref, byte(rng.Intn(3)), k, rng.Uint64())
				if i%997 == 0 {
					check(t, &m, ref)
				}
			}
			check(t, &m, ref)
		})
	}
}

// TestWrapAroundDelete builds a probe run that wraps from the last slot
// to the first and deletes from its middle: the shifted entries must
// stay reachable across the wrap.
func TestWrapAroundDelete(t *testing.T) {
	var m Map
	m.Reserve(5) // 8 slots, no growth below 6 entries
	last := m.mask
	var keys []uint64
	for k := uint64(1); len(keys) < 3; k++ {
		if m.home(k) == last {
			keys = append(keys, k)
		}
	}
	var first uint64
	for k := uint64(1); ; k++ {
		if m.home(k) == 0 {
			first = k
			break
		}
	}
	ref := map[uint64]uint64{}
	for i, k := range append(keys, first) {
		m.Put(k, uint64(i))
		ref[k] = uint64(i)
	}
	if len(m.slots) != minSlots {
		t.Fatalf("table grew to %d slots", len(m.slots))
	}
	check(t, &m, ref)
	// keys[0] sits in the last slot; keys[1], keys[2] and first wrapped
	// to slots 0, 1 and 2. Deleting keys[0] shifts every one back.
	m.Delete(keys[0])
	delete(ref, keys[0])
	check(t, &m, ref)
	if m.slots[last].key != keys[1] {
		t.Errorf("last slot holds %#x after delete, want %#x shifted back", m.slots[last].key, keys[1])
	}
	m.Delete(first)
	delete(ref, first)
	check(t, &m, ref)
}

// TestGrowth checks the 3/4 load bound and that Reserve prevents growth.
func TestGrowth(t *testing.T) {
	var m Map
	for k := uint64(1); k <= 1000; k++ {
		m.Put(k, k)
		if m.n*4 > len(m.slots)*3 {
			t.Fatalf("%d entries in %d slots exceeds 3/4 load", m.n, len(m.slots))
		}
	}
	var r Map
	r.Reserve(1000)
	size := len(r.slots)
	for k := uint64(1); k <= 1000; k++ {
		r.Put(k, k)
	}
	if len(r.slots) != size {
		t.Errorf("reserved table grew from %d to %d slots", size, len(r.slots))
	}
	r.Clear()
	if r.Len() != 0 || r.Has(1) || len(r.slots) != size {
		t.Errorf("Clear left %d entries / %d slots", r.Len(), len(r.slots))
	}
}

// TestSteadyStateAllocs: once the population stops growing, churn
// allocates nothing.
func TestSteadyStateAllocs(t *testing.T) {
	var m Map
	m.Reserve(64)
	k := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		m.Put(k*128, k)
		if k >= 64 {
			m.Delete((k - 64) * 128)
		}
		m.Get(k * 64)
		k++
	})
	if allocs != 0 {
		t.Errorf("%v allocs per operation, want 0", allocs)
	}
}

// FuzzFlatMap decodes the input as a sequence of 9-byte operations (an
// opcode byte, then a key whose width the opcode selects so that small,
// colliding keys are common) and replays them against a Go map.
func FuzzFlatMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0})
	seq := make([]byte, 0, 9*200)
	for i := 0; i < 200; i++ {
		seq = append(seq, byte(i%7))
		seq = binary.LittleEndian.AppendUint64(seq, uint64(i*37%23))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Map
		ref := map[uint64]uint64{}
		for i := 0; i+9 <= len(data); i += 9 {
			op := data[i]
			k := binary.LittleEndian.Uint64(data[i+1:])
			if op&0x80 == 0 {
				k &= 0x3f // narrow keys collide and revisit
			}
			apply(t, &m, ref, op&0x7f, k, uint64(i))
		}
		check(t, &m, ref)
	})
}
