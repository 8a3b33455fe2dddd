package main

import (
	"time"

	"lingerlonger/internal/stats"
	"lingerlonger/internal/workload"
)

// sampleNS is the cost of one burst-duration variate: HyperExp2.SampleInto
// over the run and idle fits of every bucket of the default table, the
// draws the node burst loop makes. It runs in every traced run, whatever
// the workload, because its inputs do not depend on it.
func sampleNS(seed int64) float64 {
	var fits []stats.HyperExp2
	for _, b := range workload.DefaultTable().Buckets() {
		if b.RunMean > 0 {
			fits = append(fits, stats.MustFitHyperExp2(b.RunMean, b.RunVar))
		}
		if b.IdleMean > 0 {
			fits = append(fits, stats.MustFitHyperExp2(b.IdleMean, b.IdleVar))
		}
	}
	rng := stats.NewRNG(seed)
	buf := make([]float64, 4096)
	const rounds = 32
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, h := range fits {
			h.SampleInto(buf, rng)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(fits)*len(buf))
}
