package trace

import (
	"math"
	"testing"

	"lingerlonger/internal/stats"
)

// TestViewWindowMatchesGetters checks View.Window against the three
// single-field getters it replaces in the cluster loop, at view times
// that wrap past the trace end, are negative, fall between two sample
// instants inside a block, and land in blocks no read has filled yet
// (Window is the first read of each lazy corpus).
func TestViewWindowMatchesGetters(t *testing.T) {
	blockSec := blockLen * SampleInterval
	_, eager := lazyAndEager(t, 1, 1, 21)
	dur := eager[0].Duration()
	offsets := []float64{0, 3*blockSec + 1, dur - 5, -blockSec / 3}
	times := []float64{
		0, 1, SampleInterval * 0.5, blockSec/2 + 0.75, // mid-block
		4*blockSec + 3, 7 * blockSec, // far blocks, not yet filled
		dur, dur + 1, 3*dur + blockSec, // wrapped
		-1, -SampleInterval / 4, -dur - 7, // negative
	}
	for _, off := range offsets {
		// A fresh lazy corpus per offset, so Window fills what it reads.
		lazy, _ := lazyAndEager(t, 1, 1, 21)
		lv, ev := NewView(lazy[0], off), NewView(eager[0], off)
		for _, at := range times {
			cpu, free, idle := lv.Window(at)
			for _, v := range []*View{ev, lv} {
				if want := v.UtilizationAt(at); cpu != want {
					t.Fatalf("offset %g t=%g: Window cpu %g, UtilizationAt %g", off, at, cpu, want)
				}
				if want := v.SampleAt(at).FreeMB; free != want {
					t.Fatalf("offset %g t=%g: Window free %g, SampleAt %g", off, at, free, want)
				}
				if want := v.IdleAt(at); idle != want {
					t.Fatalf("offset %g t=%g: Window idle %v, IdleAt %v", off, at, idle, want)
				}
			}
		}
	}
}

// TestIndexMatchesModulo pins Trace.index, which divides only when the
// sample number falls outside [0, n), to the plain wrapped-modulo formula
// at both edges of the trace, a lap or two either way, and at fractional
// offsets inside each of those samples.
func TestIndexMatchesModulo(t *testing.T) {
	for _, tc := range []struct {
		n        int
		interval float64
	}{{1, SampleInterval}, {7, SampleInterval}, {blockLen + 5, SampleInterval}, {10, 0.3}} {
		tr := NewTrace(tc.interval, 64, flatSamples(tc.n, 0, false))
		want := func(at float64) int {
			i := int(math.Floor(at/tc.interval)) % tc.n
			if i < 0 {
				i += tc.n
			}
			return i
		}
		n := tc.n
		for _, k := range []int{-2*n - 1, -n - 1, -n, -1, 0, 1, n - 1, n, n + 1, 2*n + 1} {
			for _, frac := range []float64{0, 0.25, 0.5, 0.999} {
				at := (float64(k) + frac) * tc.interval
				if got := tr.index(at); got != want(at) {
					t.Errorf("n=%d interval=%g: index(%g) = %d, want %d", n, tc.interval, at, got, want(at))
				}
			}
		}
	}
}

// benchmarkChain steps a fresh chain through b.N samples, one sample per
// operation, storing them in blocks when fill is set and only stepping
// (as Prefill does to reach a far block) when it is not.
func benchmarkChain(b *testing.B, fill bool) {
	cfg := DefaultConfig()
	c := newChain(&cfg, stats.NewRNG(1))
	var blk *block
	if fill {
		blk = new(block)
	}
	b.ResetTimer()
	for done := 0; done < b.N; done += blockLen {
		c.run(&cfg, blk, min(blockLen, b.N-done))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sample")
}

// BenchmarkChainSkip is the cost of one chain step that stores nothing.
func BenchmarkChainSkip(b *testing.B) { benchmarkChain(b, false) }

// BenchmarkChainFill is the cost of one chain step that stores its sample.
func BenchmarkChainFill(b *testing.B) { benchmarkChain(b, true) }
