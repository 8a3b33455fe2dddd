package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: with fewer, the value is set by a handful of
// outliers and does not repeat from run to run.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted, ascending samples. It refuses, with an error naming the sample
// count, a percentile that has fewer than minBeyond samples above it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it (need %d)", p, n, max(n-rank, 0), minBeyond)
	}
	return sorted[rank-1], nil
}

// tailLevels are the percentiles tail tries, highest first. They are few
// so that a workload's tail stays at one level whatever the number of
// repetitions that fit a run: the serve and sweep passes time thousands
// of items (p99), a tourney pass 25 cells per tournament and at least two
// tournaments (p80).
var tailLevels = []float64{99, 80}

// dist summarizes a latency distribution the way the benchmark reports
// it: the median and the highest of tailLevels that percentile accepts,
// with the sample count both rest on.
type dist struct {
	n     int
	p50   float64
	tail  float64
	tailP float64
}

// summarize sorts xs in place and returns its distribution summary.
func summarize(xs []float64) (dist, error) {
	sort.Float64s(xs)
	d := dist{n: len(xs)}
	var err error
	if d.p50, err = percentile(xs, 50); err != nil {
		return d, err
	}
	for _, p := range tailLevels {
		if v, err := percentile(xs, p); err == nil {
			d.tail, d.tailP = v, p
			return d, nil
		}
	}
	return d, fmt.Errorf("no tail percentile of %d samples has %d beyond it", len(xs), minBeyond)
}

// median returns the median of xs (mean of the middle pair for an even
// count) without reordering xs; 0 for no samples. It summarizes a few
// repetitions, where the nearest-rank rule would refuse.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs by the exclusive
// method (Python's statistics.quantiles(xs, n=4)), so spreads computed
// here match the ones Python computes from the same values. It needs
// at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	m := n + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
