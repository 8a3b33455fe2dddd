package workload

import (
	"math"
	"testing"

	"lingerlonger/internal/stats"
)

// steppedSource cycles a fixed set of levels, one per window, covering
// mixed, pure-idle and pure-busy windows.
type steppedSource []float64

func (s steppedSource) UtilizationAt(t float64) float64 {
	idx := int(t/DefaultWindow) % len(s)
	if idx < 0 {
		idx += len(s)
	}
	return s[idx]
}

// collect pulls n bursts from a fresh windowed stream built with the given
// lookahead.
func collect(t *testing.T, src UtilizationSource, seed int64, lookahead, n int) []Burst {
	t.Helper()
	w := NewWindowed(DefaultTable(), src, 0, stats.NewRNG(seed))
	if lookahead > 0 {
		w.SetLookahead(lookahead)
	}
	out := make([]Burst, n)
	for i := range out {
		out[i] = w.Next()
	}
	return out
}

// TestLookaheadPrefixIdentity is the core lookahead contract: for any
// batch size N, the stream of bursts is bit-identical to the unbatched
// stream — prefetching runs the same deterministic draw sequence, just
// earlier. Checked across seeds, batch sizes and level patterns.
func TestLookaheadPrefixIdentity(t *testing.T) {
	sources := []UtilizationSource{
		ConstantUtilization(0.5),
		ConstantUtilization(0),
		ConstantUtilization(1),
		steppedSource{0.2, 0, 0.9, 1, 0.5},
	}
	for si, src := range sources {
		for _, seed := range []int64{1, 2, 17, 99} {
			base := collect(t, src, seed, 0, 400)
			for _, la := range []int{1, 2, 7, 64, 1024} {
				got := collect(t, src, seed, la, 400)
				for i := range base {
					if got[i] != base[i] {
						t.Fatalf("source %d seed %d lookahead %d: burst %d = %+v, unbatched %+v",
							si, seed, la, i, got[i], base[i])
					}
				}
			}
		}
	}
}

// TestLookaheadBufferedConsume checks that the zero-call batch form
// (Buffered + Consume) hands out exactly the Next stream, under a
// randomized interleaving of the two access styles, and that Now always
// reports the consumption point.
func TestLookaheadBufferedConsume(t *testing.T) {
	src := steppedSource{0.3, 0.8, 0, 1}
	const total = 600
	base := collect(t, src, 5, 0, total)

	w := NewWindowed(DefaultTable(), src, 0, stats.NewRNG(5))
	w.SetLookahead(16)
	ops := stats.NewRNG(1234)
	var got []Burst
	for len(got) < total {
		if ops.Bool(0.5) {
			got = append(got, w.Next())
		} else {
			batch := w.Buffered()
			if len(batch) == 0 {
				t.Fatalf("Buffered returned an empty non-nil batch")
			}
			k := 1 + ops.Intn(len(batch))
			got = append(got, batch[:k]...)
			w.Consume(k)
		}
		if want := got[len(got)-1].End(); w.Now() != want {
			t.Fatalf("after %d bursts: Now %v, want consumption point %v", len(got), w.Now(), want)
		}
	}
	for i := 0; i < total; i++ {
		if got[i] != base[i] {
			t.Fatalf("burst %d: batched %+v != unbatched %+v", i, got[i], base[i])
		}
	}
}

// TestLookaheadConsumeZeroAndOverrun pins Consume's edge contract: k = 0
// is a no-op that leaves the consumption point untouched, and consuming
// past the buffered batch panics rather than silently desynchronizing.
func TestLookaheadConsumeZeroAndOverrun(t *testing.T) {
	w := NewWindowed(DefaultTable(), ConstantUtilization(0.5), 0, stats.NewRNG(3))
	w.SetLookahead(8)
	b := w.Next()
	w.Consume(0)
	if w.Now() != b.End() {
		t.Fatalf("Consume(0) moved the consumption point: %v != %v", w.Now(), b.End())
	}
	batch := w.Buffered()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("Consume past the batch did not panic")
			}
		}()
		w.Consume(len(batch) + 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("negative Consume did not panic")
			}
		}()
		w.Consume(-1)
	}()
}

// TestLookaheadSeekToPanics: a lookahead stream's RNG has already drawn
// past the consumption point, so it cannot be rewound — SeekTo must
// panic instead of silently replaying or skipping draws.
func TestLookaheadSeekToPanics(t *testing.T) {
	w := NewWindowed(DefaultTable(), ConstantUtilization(0.5), 0, stats.NewRNG(1))
	w.SetLookahead(4)
	defer func() {
		if recover() == nil {
			t.Errorf("SeekTo on a lookahead stream did not panic")
		}
	}()
	w.SeekTo(10)
}

// TestSetLookaheadAfterStartPanics: enabling batching after the first
// burst has been handed out would desynchronize the drawn and handed-out
// positions.
func TestSetLookaheadAfterStartPanics(t *testing.T) {
	w := NewWindowed(DefaultTable(), ConstantUtilization(0.5), 0, stats.NewRNG(1))
	w.Next()
	defer func() {
		if recover() == nil {
			t.Errorf("SetLookahead after the stream started did not panic")
		}
	}()
	w.SetLookahead(4)
}

// TestSetLookaheadNonPositiveDisables: n <= 0 leaves the stream unbatched
// (Buffered reports nil) and seekable.
func TestSetLookaheadNonPositiveDisables(t *testing.T) {
	w := NewWindowed(DefaultTable(), ConstantUtilization(0.5), 0, stats.NewRNG(1))
	w.SetLookahead(0)
	if w.Buffered() != nil {
		t.Errorf("lookahead 0: Buffered not nil")
	}
	w.SeekTo(4) // must not panic
	w2 := NewWindowed(DefaultTable(), ConstantUtilization(0.5), 0, stats.NewRNG(1))
	w2.SetLookahead(-3)
	if w2.Buffered() != nil {
		t.Errorf("negative lookahead: Buffered not nil")
	}
}

// TestFillMatchesSequentialDraws: the batched FillRuns/FillIdles forms
// must consume the RNG exactly like the equivalent sequence of NextRun /
// NextIdle calls, for mixed and degenerate (pure idle / pure busy)
// levels.
func TestFillMatchesSequentialDraws(t *testing.T) {
	table := DefaultTable()
	for _, u := range []float64{0, 0.4, 1} {
		seq := NewGenerator(table, u, stats.NewRNG(11))
		bat := NewGenerator(table, u, stats.NewRNG(11))
		var want [64]float64
		for i := range want {
			want[i] = seq.NextRun()
		}
		var got [64]float64
		bat.FillRuns(got[:])
		if got != want {
			t.Fatalf("u=%g: FillRuns diverged from sequential NextRun", u)
		}
		// The two generators' RNGs are now aligned again; repeat for idles
		// to check the batch leaves the stream in the same state.
		for i := range want {
			want[i] = seq.NextIdle()
		}
		bat.FillIdles(got[:])
		if got != want {
			t.Fatalf("u=%g: FillIdles diverged from sequential NextIdle", u)
		}
	}
}

// FuzzLookaheadPrefixIdentity fuzzes the lookahead identity over seed,
// batch size and a two-level utilization pattern: any lookahead stream
// must reproduce the unbatched burst sequence exactly.
func FuzzLookaheadPrefixIdentity(f *testing.F) {
	f.Add(int64(1), 8, 0.5, 0.0)
	f.Add(int64(42), 1, 0.0, 1.0)
	f.Add(int64(7), 64, 0.9, 0.2)
	f.Add(int64(-3), 300, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, seed int64, lookahead int, u1, u2 float64) {
		if lookahead < 1 || lookahead > 4096 {
			t.Skip()
		}
		clamp := func(u float64) float64 {
			if !(u >= 0) {
				return 0
			}
			if u > 1 {
				return 1
			}
			return u
		}
		src := steppedSource{clamp(u1), clamp(u2)}
		base := collect(t, src, seed, 0, 200)
		got := collect(t, src, seed, lookahead, 200)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("lookahead %d: burst %d = %+v, unbatched %+v", lookahead, i, got[i], base[i])
			}
		}
	})
}

// TestWindowedRollRefitsOnRawLevel checks when a window roll keeps the
// generator: only when the source returns the same value bit for bit.
// A -0 after 0 and distinct out-of-range levels must refit, so every
// window reports the parameters Table.ParamsAt gives its own level.
func TestWindowedRollRefitsOnRawLevel(t *testing.T) {
	negZero := math.Copysign(0, -1)
	src := steppedSource{0, negZero, negZero, 0.5, 0.5, 0.25, 1.5, 2, -1, -3, 0.5}
	table := DefaultTable()
	w := NewWindowed(table, src, 0, stats.NewRNG(1))
	for k, u := range src {
		if k > 0 {
			w.SeekTo(float64(k) * DefaultWindow)
		}
		got, want := w.Utilization(), table.ParamsAt(u).Utilization
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("window %d (level %g): Utilization %g, want %g", k, u, got, want)
		}
	}
}
