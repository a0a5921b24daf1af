package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// lcg is a tiny deterministic generator for property tests.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g) >> 1
}

// genRefs builds a pseudo-random but deterministic reference sequence
// exercising every Kind, forward and backward deltas, size changes and
// work fields.
func genRefs(seed uint64, n int) []Ref {
	g := lcg(seed)
	sizes := []uint8{1, 2, 4, 8, 16, 128}
	refs := make([]Ref, n)
	addr := uint64(0x10000)
	for i := range refs {
		switch g.next() % 4 {
		case 0:
			addr += g.next() % 4096
		case 1:
			addr -= g.next() % 4096
		case 2:
			addr = g.next() % (1 << 40)
		case 3:
			addr += 8
		}
		refs[i] = Ref{
			Kind:  Kind(g.next() % 4),
			VAddr: addr,
			Size:  sizes[g.next()%uint64(len(sizes))],
		}
		if g.next()%3 == 0 {
			refs[i].Work = uint32(g.next() % 1000)
		}
	}
	return refs
}

func encodeCPUs(t *testing.T, percpu [][]Ref) *File {
	t.Helper()
	enc, err := NewEncoder(len(percpu))
	if err != nil {
		t.Fatal(err)
	}
	for cpu, refs := range percpu {
		for _, r := range refs {
			if err := enc.Add(cpu, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return enc.File()
}

// TestRoundTripProperty is the converter's encode→decode property
// test: serializing a File and decoding it back must reproduce the
// exact reference sequence of every CPU, across seeds and shapes
// (including an empty per-CPU block).
func TestRoundTripProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		percpu := [][]Ref{
			genRefs(seed, 500),
			genRefs(seed*77, 1),
			nil, // a CPU that never references memory
			genRefs(seed*991, 137),
		}
		f := encodeCPUs(t, percpu)

		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("seed %d: decoding round-trip: %v", seed, err)
		}
		if got.NumCPUs() != len(percpu) {
			t.Fatalf("seed %d: %d CPUs after round-trip, want %d", seed, got.NumCPUs(), len(percpu))
		}
		for cpu, want := range percpu {
			if got.Refs(cpu) != uint64(len(want)) {
				t.Fatalf("seed %d cpu %d: %d refs, want %d", seed, cpu, got.Refs(cpu), len(want))
			}
			s := got.Stream(cpu)
			var r Ref
			for i, w := range want {
				if !s.Next(&r) {
					t.Fatalf("seed %d cpu %d: stream ended at ref %d of %d", seed, cpu, i, len(want))
				}
				if r != w {
					t.Fatalf("seed %d cpu %d ref %d: got %+v, want %+v", seed, cpu, i, r, w)
				}
			}
			if s.Next(&r) {
				t.Fatalf("seed %d cpu %d: stream yields past its %d refs", seed, cpu, len(want))
			}
		}
		if got.Hash() != f.Hash() {
			t.Fatalf("seed %d: content hash changed over round-trip", seed)
		}
	}
}

// TestStreamsAreIndependent verifies two cursors over the same CPU do
// not share decode state.
func TestStreamsAreIndependent(t *testing.T) {
	refs := genRefs(42, 64)
	f := encodeCPUs(t, [][]Ref{refs})
	a, b := f.Stream(0), f.Stream(0)
	var ra, rb Ref
	for i := range refs {
		if !a.Next(&ra) || !b.Next(&rb) || ra != rb || ra != refs[i] {
			t.Fatalf("ref %d: cursors diverged: %+v vs %+v (want %+v)", i, ra, rb, refs[i])
		}
	}
}

// TestStreamOutOfRange: CPUs beyond the trace idle on the empty stream.
func TestStreamOutOfRange(t *testing.T) {
	f := encodeCPUs(t, [][]Ref{genRefs(7, 3)})
	var r Ref
	if f.Stream(1).Next(&r) || f.Stream(-1).Next(&r) {
		t.Fatal("out-of-range CPU stream yielded a reference")
	}
}

// corrupt returns a valid serialized trace for mutation-based decode
// tests.
func corpusBytes(t *testing.T) []byte {
	t.Helper()
	f := encodeCPUs(t, [][]Ref{genRefs(3, 20), genRefs(5, 10)})
	return f.AppendBinary(nil)
}

// TestDecodeMalformed is the malformed/truncation table: every entry
// must be rejected with an error, never a panic or a silent partial
// File.
func TestDecodeMalformed(t *testing.T) {
	valid := corpusBytes(t)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "bad magic"},
		{"short magic", []byte("CDPC"), "bad magic"},
		{"wrong magic", []byte("NOTATRACE-------"), "bad magic"},
		{"magic only", []byte(Magic), "truncated CPU count"},
		{"zero cpus", append([]byte(Magic), 0), "0 CPUs"},
		{"too many cpus", append([]byte(Magic), 200, 1), "200 CPUs"},
		{"missing ref count", append([]byte(Magic), 1), "truncated reference count"},
		{"non-canonical cpu count", append([]byte(Magic), 0x81, 0x00), "truncated CPU count"},
		{"non-canonical delta", append([]byte(Magic), 1, 1, 3, 0x00, 0x80, 0x00), "bad address delta varint"},
		{"missing block length", append([]byte(Magic), 1, 1), "truncated block length"},
		{"block length overruns", append([]byte(Magic), 1, 1, 50, 0x00, 0x00), "exceeds remaining"},
		{"reserved control bits", append([]byte(Magic), 1, 1, 2, 0x10, 0x00), "reserved control bits"},
		{"block ends early", append([]byte(Magic), 1, 2, 2, 0x00, 0x00), "references early"},
		{"dangling delta varint", append([]byte(Magic), 1, 1, 2, 0x00, 0x80), "bad address delta varint"},
		{"missing size field", append([]byte(Magic), 1, 1, 2, 0x04, 0x00), "bad size varint"},
		{"size out of range", append([]byte(Magic), 1, 1, 4, 0x04, 0x00, 0x80, 0x02), "exceeds 255"},
		{"missing work field", append([]byte(Magic), 1, 1, 2, 0x08, 0x00), "bad work varint"},
		{"work out of range", append([]byte(Magic), 1, 1, 7, 0x08, 0x00, 0x80, 0x80, 0x80, 0x80, 0x10), "exceeds uint32"},
		{"trailing block bytes", append([]byte(Magic), 1, 1, 4, 0x00, 0x00, 0x00, 0x00), "trailing bytes after 1 references"},
		{"trailing file bytes", append(append([]byte{}, valid...), 0xff), "trailing bytes after the last block"},
		{"truncated mid-file", valid[:len(valid)-3], ""},
	}
	for _, tc := range cases {
		_, err := DecodeBytes(tc.data)
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestDecodeTruncationSweep drops every possible tail from a valid
// trace; only the full input may decode.
func TestDecodeTruncationSweep(t *testing.T) {
	valid := corpusBytes(t)
	for cut := 0; cut < len(valid); cut++ {
		if _, err := DecodeBytes(valid[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", cut, len(valid))
		}
	}
	if _, err := DecodeBytes(valid); err != nil {
		t.Fatalf("full input failed to decode: %v", err)
	}
}

// TestEncoderRejects covers the encoder's own range checks.
func TestEncoderRejects(t *testing.T) {
	if _, err := NewEncoder(0); err == nil {
		t.Error("0-CPU encoder accepted")
	}
	if _, err := NewEncoder(MaxFileCPUs + 1); err == nil {
		t.Error("oversized encoder accepted")
	}
	enc, err := NewEncoder(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Add(1, Ref{Size: 8}); err == nil {
		t.Error("out-of-range CPU accepted")
	}
	if err := enc.Add(0, Ref{Kind: Kind(9), Size: 8}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestUvarintLen holds the arithmetic length to binary.PutUvarint at
// every byte-count boundary.
func TestUvarintLen(t *testing.T) {
	var buf [binary.MaxVarintLen64]byte
	for _, v := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21, 1 << 63, ^uint64(0)} {
		if got, want := uvarintLen(v), binary.PutUvarint(buf[:], v); got != want {
			t.Errorf("uvarintLen(%d) = %d, want %d", v, got, want)
		}
	}
}
