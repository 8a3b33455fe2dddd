package stats

import (
	"math/rand"
	"slices"
	"testing"
)

// refSplit is Split written against the math/rand reference generator.
func refSplit(r *rand.Rand) *rand.Rand {
	seed := r.Int63() ^ (r.Int63() << 1)
	return rand.New(rand.NewSource(seed))
}

// TestRNGMatchesMathRand is the stream-identity check for the concrete
// source: RNG must reproduce rand.New(rand.NewSource(seed)) value for value
// across every method, interleaved so the fast path (Float64, Bool, Int63,
// Split) and the rand.Rand path (Intn, ExpFloat64, NormFloat64, Perm)
// advance one shared state, and through chains of Splits.
func TestRNGMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, -5, 1<<31 - 1, 2 * (1<<31 - 1), 89482311, 1 << 40}
	const rounds = 1 << 14 // 12 values a round: ~1.6e6 values over all seeds
	for _, seed := range seeds {
		got, want := NewRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < rounds; i++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d round %d: Float64 = %v, want %v", seed, i, g, w)
			}
			if g, w := got.Bool(0.3), want.Float64() < 0.3; g != w {
				t.Fatalf("seed %d round %d: Bool = %v, want %v", seed, i, g, w)
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d round %d: Int63 = %d, want %d", seed, i, g, w)
			}
			for _, n := range []int{1 << 10, 97, 1<<33 + 7} {
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d round %d: Intn(%d) = %d, want %d", seed, i, n, g, w)
				}
			}
			if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
				t.Fatalf("seed %d round %d: ExpFloat64 = %v, want %v", seed, i, g, w)
			}
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("seed %d round %d: NormFloat64 = %v, want %v", seed, i, g, w)
			}
			if i%64 == 0 {
				if g, w := got.Perm(50), want.Perm(50); !slices.Equal(g, w) {
					t.Fatalf("seed %d round %d: Perm(50) = %v, want %v", seed, i, g, w)
				}
			}
			if i%1024 == 1023 {
				got, want = got.Split(), refSplit(want)
			}
		}
	}
}

// TestRNGCloneContinuesStream checks that a clone taken mid-stream draws
// exactly the values the original draws next, across the fast path and the
// rand.Rand path, and that the two stay independent afterwards.
func TestRNGCloneContinuesStream(t *testing.T) {
	orig := NewRNG(7)
	for i := 0; i < 1000; i++ {
		orig.ExpFloat64()
		orig.Float64()
	}
	clone := orig.Clone()
	want := make([]float64, 0, 4096)
	for i := 0; i < 1024; i++ {
		want = append(want, orig.Float64(), orig.ExpFloat64(), float64(orig.Intn(97)), orig.NormFloat64())
	}
	for i := 0; i < 1024; i++ {
		got := []float64{clone.Float64(), clone.ExpFloat64(), float64(clone.Intn(97)), clone.NormFloat64()}
		if !slices.Equal(got, want[4*i:4*i+4]) {
			t.Fatalf("round %d: clone drew %v, original %v", i, got, want[4*i:4*i+4])
		}
	}
	// Drawing from the clone must not move the original.
	a, b := orig.Clone(), orig.Clone()
	for i := 0; i < 100; i++ {
		a.Int63()
	}
	if g, w := b.ExpFloat64(), orig.ExpFloat64(); g != w {
		t.Fatalf("after draws on a sibling clone: ExpFloat64 = %v, want %v", g, w)
	}
}

// TestCursorMatchesRNG checks that uniforms drawn through a Cursor are
// the RNG's own stream: runs of cursor draws interleaved with RNG method
// calls (the fast path and the rand.Rand path) must reproduce math/rand
// value for value, through Clones and Splits taken between runs. A clone
// taken while a cursor is out must also carry on from where the RNG was
// when the cursor was taken.
func TestCursorMatchesRNG(t *testing.T) {
	for _, seed := range []int64{1, -5, 1 << 40} {
		got, want := NewRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 1<<12; i++ {
			cur := got.Cursor()
			for k := 0; k < i%9; k++ {
				var f float64
				if f, cur = cur.Float64(); f != want.Float64() {
					t.Fatalf("seed %d round %d: cursor draw %d differs", seed, i, k)
				}
			}
			got.SetCursor(cur)
			if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
				t.Fatalf("seed %d round %d: ExpFloat64 = %v, want %v", seed, i, g, w)
			}
			if g, w := got.Intn(97), want.Intn(97); g != w {
				t.Fatalf("seed %d round %d: Intn = %d, want %d", seed, i, g, w)
			}
			if g, w := got.Bool(0.4), want.Float64() < 0.4; g != w {
				t.Fatalf("seed %d round %d: Bool = %v, want %v", seed, i, g, w)
			}
			switch i % 100 {
			case 33:
				got = got.Clone()
			case 66:
				got, want = got.Split(), refSplit(want)
			}
		}

		// A clone taken with a cursor out starts where the cursor did.
		orig := NewRNG(seed)
		orig.Float64()
		cur := orig.Cursor()
		clone := orig.Clone()
		for k := 0; k < 100; k++ {
			var f float64
			if f, cur = cur.Float64(); f != clone.Float64() {
				t.Fatalf("seed %d: cursor draw %d differs from a clone taken with it out", seed, k)
			}
		}
	}
}

// TestSetCursorRejectsForeignCursor checks that a cursor cannot move an
// RNG it was not taken from, including the RNG's own clone.
func TestSetCursorRejectsForeignCursor(t *testing.T) {
	r := NewRNG(3)
	c := r.Cursor()
	defer func() {
		if recover() == nil {
			t.Fatal("SetCursor accepted a clone's cursor")
		}
	}()
	r.Clone().SetCursor(c)
}

var sinkFloat64 float64

func BenchmarkRNGFloat64(b *testing.B) {
	rng := NewRNG(1)
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += rng.Float64()
	}
	sinkFloat64 = sum
}
