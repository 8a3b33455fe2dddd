package trace

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"lingerlonger/internal/obs"
	"lingerlonger/internal/stats"
)

// lazyAndEager returns the same corpus twice: as GenerateCorpus makes it,
// with no block synthesized yet, and as Generate makes it from the same
// splits, with every block synthesized in order.
func lazyAndEager(t *testing.T, machines, days int, seed int64) (lazy, eager []*Trace) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Days = days
	lazy, err := GenerateCorpus(cfg, machines, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	root := stats.NewRNG(seed)
	for range machines {
		tr, err := Generate(cfg, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		eager = append(eager, tr)
	}
	return lazy, eager
}

// sameAt fails unless views a and b agree on every field at view time at.
func sameAt(t *testing.T, a, b *View, at float64) {
	t.Helper()
	if ga, gb := a.SampleAt(at), b.SampleAt(at); ga != gb {
		t.Fatalf("t=%g: sample %+v, want %+v", at, ga, gb)
	}
	if ga, gb := a.UtilizationAt(at), b.UtilizationAt(at); ga != gb {
		t.Fatalf("t=%g: utilization %g, want %g", at, ga, gb)
	}
	if ga, gb := a.IdleAt(at), b.IdleAt(at); ga != gb {
		t.Fatalf("t=%g: idle %v, want %v", at, ga, gb)
	}
}

// TestLazyMatchesEagerShuffled reads every sample of a lazy corpus in a
// random order, so blocks fill out of order from snapshots, from the
// frontier and after being stepped past, and checks each value against
// the eager corpus.
func TestLazyMatchesEagerShuffled(t *testing.T) {
	lazy, eager := lazyAndEager(t, 2, 2, 11)
	for m := range lazy {
		lv, ev := NewView(lazy[m], 0), NewView(eager[m], 0)
		for _, i := range stats.NewRNG(int64(m)).Perm(lazy[m].Len()) {
			sameAt(t, lv, ev, float64(i)*SampleInterval)
		}
	}
}

// TestLazyViewsMatchEager reads lazy views sample by sample from offsets
// that start mid-block, cross block boundaries, run off the trace end
// and wrap, or are negative, against views of the eager corpus.
func TestLazyViewsMatchEager(t *testing.T) {
	lazy, eager := lazyAndEager(t, 1, 1, 12)
	dur := eager[0].Duration()
	blockSec := blockLen * SampleInterval
	offsets := []float64{
		5*blockSec - 100, // mid-block, crosses into block 5
		dur - 3000,       // crosses the partial last block and wraps to 0
		-7 * blockSec / 3,
		2*blockSec + 0.5, // between two sample instants
	}
	for _, off := range offsets {
		lv, ev := NewView(lazy[0], off), NewView(eager[0], off)
		for at := 0.0; at < 2*blockSec; at += SampleInterval / 2 {
			sameAt(t, lv, ev, at)
		}
	}
	// Whatever was filled above, the remaining blocks still match.
	for i := range eager[0].Len() {
		if got, want := lazy[0].Sample(i), eager[0].Sample(i); got != want {
			t.Fatalf("sample %d: %+v, want %+v", i, got, want)
		}
	}
	if got, want := lazy[0].IdleMask(), eager[0].IdleMask(); !slices.Equal(got, want) {
		t.Fatal("idle masks differ")
	}
}

// TestLazyConcurrentReaders has eight goroutines read one lazy corpus,
// each through its own views in its own order, and checks every value
// against the eager corpus. Run under -race it also checks the block
// publication.
func TestLazyConcurrentReaders(t *testing.T) {
	lazy, eager := lazyAndEager(t, 3, 1, 13)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := stats.NewRNG(int64(100 + g))
			for _, m := range rng.Perm(len(lazy)) {
				off := rng.Float64() * lazy[m].Duration()
				lv, ev := NewView(lazy[m], off), NewView(eager[m], off)
				for _, i := range rng.Perm(lazy[m].Len()) {
					at := float64(i) * SampleInterval
					if lv.SampleAt(at) != ev.SampleAt(at) || lv.IdleAt(at) != ev.IdleAt(at) {
						errs <- "values differ"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestLazyWriteBytes checks that a corpus read in part and then written
// yields the bytes of the same corpus synthesized in full first.
func TestLazyWriteBytes(t *testing.T) {
	lazy, eager := lazyAndEager(t, 2, 2, 14)
	for m, tr := range lazy {
		v := NewView(tr, float64(m+3)*blockLen*SampleInterval+17)
		for at := 0.0; at < 3000; at += SampleInterval {
			v.UtilizationAt(at)
		}
	}
	var got, want bytes.Buffer
	for m := range lazy {
		if err := Write(&got, lazy[m]); err != nil {
			t.Fatal(err)
		}
		if err := Write(&want, eager[m]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("Write of the partly read lazy corpus differs from the eager corpus")
	}
}

// TestPrefillCounts pins the synthesis counters: filling a view's start
// block steps through every block before it, a later read behind the
// frontier fills from a snapshot without stepping, and a block already
// filled costs nothing.
func TestPrefillCounts(t *testing.T) {
	lazy, _ := lazyAndEager(t, 1, 1, 15)
	reg := obs.NewRegistry()
	blockSec := blockLen * SampleInterval
	v := NewView(lazy[0], 5*blockSec+10)
	Prefill([]*View{v, NewView(lazy[0], 5*blockSec)}, obs.New(reg, nil))
	adv, fill := reg.Counter(obs.TraceSamplesAdvanced), reg.Counter(obs.TraceSamplesFilled)
	if adv.Value() != 5*blockLen || fill.Value() != blockLen {
		t.Fatalf("after prefill: advanced %d filled %d, want %d and %d", adv.Value(), fill.Value(), 5*blockLen, blockLen)
	}
	v.IdleAt(-3 * blockSec) // block 2, stepped past above
	v.IdleAt(blockSec)      // block 6, at the frontier
	v.IdleAt(blockSec + 20) // block 6 again
	if adv.Value() != 5*blockLen || fill.Value() != 3*blockLen {
		t.Fatalf("after reads: advanced %d filled %d, want %d and %d", adv.Value(), fill.Value(), 5*blockLen, 3*blockLen)
	}
}

// TestGeneratedIdleMatchesThreshold checks the idle column the generator
// writes beside each sample against the recruitment threshold applied to
// the stored cpu and keyboard columns, as NewTrace applies it.
func TestGeneratedIdleMatchesThreshold(t *testing.T) {
	lazy, _ := lazyAndEager(t, 1, 1, 16)
	tr := lazy[0]
	samples := make([]Sample, tr.Len())
	for i := range samples {
		samples[i] = tr.Sample(i)
	}
	if !slices.Equal(tr.IdleMask(), NewTrace(tr.Interval(), tr.TotalMB(), samples).IdleMask()) {
		t.Fatal("generated idle column differs from the threshold applied to its samples")
	}
}
