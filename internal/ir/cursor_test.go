package ir

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/trace"
)

var _ trace.Stream = (*nestCursor)(nil)

// cursorCase is one random nest together with the arguments of each
// stream constructor.
type cursorCase struct {
	prog      *Program
	nest      *Nest
	p, cpu    int
	lo, hi    int // NestWindowStream and NestWarmStream window, unclamped
	lineBytes int // NestWarmStream line size
}

// randomCursorCase builds a small random nest. Strides and offsets
// range over negative, zero and positive values, so elements fall below
// and above their arrays (clamped, or wrapped for Wrap accesses);
// prefetch distances reach past InnerIters; the code segment may be
// empty under a non-zero InstFootprint; and warm-stream line sizes
// above the largest stride give inner jumps greater than 1.
func randomCursorCase(rng *rand.Rand) cursorCase {
	prog := &Program{Name: "rand", CodeBase: 0x4000000, CodeSize: []int{0, 32, 96, 200, 4096}[rng.Intn(5)]}
	for k := 0; k < 1+rng.Intn(3); k++ {
		prog.Arrays = append(prog.Arrays, &Array{
			Name:     string(rune('a' + k)),
			ElemSize: []int{1, 2, 4, 8, 16}[rng.Intn(5)],
			Elems:    1 + rng.Intn(200),
			Base:     uint64(k+1) << 20,
		})
	}
	n := &Nest{
		Name:          "n",
		Parallel:      rng.Intn(3) != 0,
		Iterations:    1 + rng.Intn(20),
		InnerIters:    1 + rng.Intn(20),
		WorkPerIter:   rng.Intn(6),
		InstFootprint: []int{0, 0, 32, 64, 100}[rng.Intn(5)],
		Sched:         Schedule{Kind: PartitionKind(rng.Intn(2)), Reverse: rng.Intn(2) == 0},
	}
	n.Suppressed = n.Parallel && rng.Intn(4) == 0
	for k := 0; k < rng.Intn(5); k++ {
		n.Accesses = append(n.Accesses, Access{
			Array:            prog.Arrays[rng.Intn(len(prog.Arrays))],
			Kind:             RefKind(rng.Intn(2)),
			OuterStride:      rng.Intn(41) - 20,
			InnerStride:      rng.Intn(11) - 5,
			Offset:           rng.Intn(61) - 30,
			Wrap:             rng.Intn(2) == 0,
			Prefetch:         rng.Intn(2) == 0,
			PrefetchDistance: rng.Intn(n.InnerIters + 6),
		})
	}
	p := 1 + rng.Intn(4)
	return cursorCase{
		prog: prog, nest: n, p: p, cpu: rng.Intn(p),
		lo: rng.Intn(n.Iterations+4) - 2, hi: rng.Intn(n.Iterations+4) - 2,
		lineBytes: []int{1, 8, 32, 64, 128}[rng.Intn(5)],
	}
}

// drain collects a stream's references, failing past limit.
func drain(t testing.TB, s trace.Stream, limit int) []trace.Ref {
	var refs []trace.Ref
	var r trace.Ref
	for s.Next(&r) {
		if refs = append(refs, r); len(refs) > limit {
			t.Fatalf("stream longer than %d references", limit)
		}
	}
	return refs
}

// checkCursorCase diffs all three stream constructors against the
// oracle interpreter.
func checkCursorCase(t testing.TB, c cursorCase) {
	const limit = 1 << 20
	pairs := []struct {
		name      string
		got, want trace.Stream
	}{
		{"NestStream", NestStream(c.prog, c.nest, c.p, c.cpu), oldNestStream(c.prog, c.nest, c.p, c.cpu)},
		{"NestWindowStream", NestWindowStream(c.prog, c.nest, c.p, c.cpu, c.lo, c.hi), oldNestWindowStream(c.prog, c.nest, c.p, c.cpu, c.lo, c.hi)},
		{"NestWarmStream", NestWarmStream(c.prog, c.nest, c.p, c.cpu, c.lo, c.hi, c.lineBytes), oldNestWarmStream(c.prog, c.nest, c.p, c.cpu, c.lo, c.hi, c.lineBytes)},
	}
	for _, pr := range pairs {
		got, want := drain(t, pr.got, limit), drain(t, pr.want, limit)
		if reflect.DeepEqual(got, want) {
			continue
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("%s: reference %d = %+v, want %+v\nnest %+v", pr.name, i, got[i], want[i], *c.nest)
			}
		}
		t.Fatalf("%s: %d references, want %d\nnest %+v", pr.name, len(got), len(want), *c.nest)
	}
}

// TestCursorMatchesOracle diffs the flattened cursor against the
// oracle on random nests and checks the generator reached every case
// the cursor special-cases.
func TestCursorMatchesOracle(t *testing.T) {
	cover := map[string]int{}
	for seed := int64(0); seed < 3000; seed++ {
		c := randomCursorCase(rand.New(rand.NewSource(seed)))
		checkCursorCase(t, c)
		n := c.nest
		if n.InstFootprint > 0 && c.prog.CodeSize == 0 {
			cover["InstFootprint with CodeSize 0"]++
		}
		if warmJump(c) > 1 {
			cover["warm jump > 1"]++
		}
		for _, ac := range n.Accesses {
			lo, hi := elementRange(ac, n)
			switch {
			case ac.Wrap && (lo < 0 || hi >= ac.Array.Elems):
				cover["wrap"]++
			case !ac.Wrap && lo < 0:
				cover["clamp low"]++
			}
			if !ac.Wrap && hi >= ac.Array.Elems {
				cover["clamp high"]++
			}
			if ac.InnerStride < 0 {
				cover["negative stride"]++
			}
			if ac.InnerStride == 0 {
				cover["zero stride"]++
			}
			if ac.Prefetch && ac.PrefetchDistance >= n.InnerIters {
				cover["prefetch past InnerIters"]++
			}
		}
	}
	for _, k := range []string{"InstFootprint with CodeSize 0", "warm jump > 1", "wrap", "clamp low", "clamp high",
		"negative stride", "zero stride", "prefetch past InnerIters"} {
		if cover[k] == 0 {
			t.Errorf("generator never produced %s", k)
		}
	}
}

// elementRange returns the smallest and largest element ac's affine
// form reaches over the whole nest, before wrapping or clamping.
func elementRange(ac Access, n *Nest) (lo, hi int) {
	lo, hi = ac.Offset, ac.Offset
	for _, span := range [][2]int{{ac.OuterStride, n.Iterations - 1}, {ac.InnerStride, n.InnerIters - 1}} {
		if d := span[0] * span[1]; d < 0 {
			lo += d
		} else {
			hi += d
		}
	}
	return lo, hi
}

// warmJump is the inner step NestWarmStream takes for c.
func warmJump(c cursorCase) int {
	cur, ok := NestWarmStream(c.prog, c.nest, c.p, c.cpu, c.lo, c.hi, c.lineBytes).(*nestCursor)
	if !ok {
		return 0
	}
	return cur.jump
}

// TestCursorAllocs pins the allocations per stream to the oracle's:
// the plan slice replaces the stream adapter the oracle allocates.
func TestCursorAllocs(t *testing.T) {
	prog := testProgram()
	n := prog.Phases[0].Nests[0]
	got := testing.AllocsPerRun(100, func() { NestStream(prog, n, 4, 0) })
	want := testing.AllocsPerRun(100, func() { oldNestStream(prog, n, 4, 0) })
	if got > want {
		t.Errorf("NestStream allocates %v times per stream, the oracle %v", got, want)
	}
}

// FuzzNestStream diffs the flattened cursor against the oracle on the
// random nest each seed generates.
func FuzzNestStream(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1996, -3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkCursorCase(t, randomCursorCase(rand.New(rand.NewSource(seed))))
	})
}
