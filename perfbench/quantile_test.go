package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRankAndRefusal(t *testing.T) {
	xs := seq(1000)
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 500}, {99, 990}, {90, 900}, {0.01, 1}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..1000 = %g, %v; want %g", c.p, got, err, c.want)
		}
	}
	// p99 of 1000 has exactly 10 samples beyond it; of 999 only 9.
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples accepted with 9 beyond it")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples accepted")
	}
}

func TestSummarizePicksHighestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n     int
		tailP float64
	}{{1000, 99}, {300, 80}, {75, 80}, {50, 80}} {
		d, err := summarize(seq(c.n))
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if d.tailP != c.tailP || d.n != c.n {
			t.Errorf("n=%d: tail p%g over %d samples, want p%g", c.n, d.tailP, d.n, c.tailP)
		}
	}
	if _, err := summarize(seq(49)); err == nil {
		t.Error("49 samples gave a tail with fewer than 10 beyond it")
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3.2, 1.1, 9.9, 4.4, 2.0, 7.5, 6.1}, 2.0, 7.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianDoesNotReorder(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}
