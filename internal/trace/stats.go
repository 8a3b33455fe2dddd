package trace

import "lingerlonger/internal/stats"

// CorpusStats aggregates the §3.2 workstation-availability statistics over
// a corpus of traces.
type CorpusStats struct {
	Machines int
	Samples  int

	NonIdleFraction float64 // fraction of time in the non-idle state

	MeanCPU        float64 // overall mean CPU utilization
	MeanCPUIdle    float64 // mean CPU during idle intervals
	MeanCPUNonIdle float64 // mean CPU during non-idle intervals

	// FracNonIdleBelow10 is the fraction of non-idle samples whose CPU is
	// below 10% — the paper reports 76%, the headroom lingering exploits.
	FracNonIdleBelow10 float64

	// Mean durations of idle and non-idle episodes, seconds.
	MeanIdleEpisode    float64
	MeanNonIdleEpisode float64
}

// Analyze computes corpus statistics. Generated traces are synthesized in
// full first, in parallel.
func Analyze(traces []*Trace) CorpusStats {
	fillCorpus(traces)
	var cs CorpusStats
	cs.Machines = len(traces)
	var nonIdle, total int
	var cpuSum, cpuIdleSum, cpuNonIdleSum float64
	var below10 int
	var idleEp, nonIdleEp stats.Welford
	for _, tr := range traces {
		mask := tr.IdleMask()
		for i, idle := range mask {
			cpu := tr.Sample(i).CPU
			total++
			cpuSum += cpu
			if idle {
				cpuIdleSum += cpu
			} else {
				nonIdle++
				cpuNonIdleSum += cpu
				if cpu < RecruitmentCPU {
					below10++
				}
			}
		}
		for _, ep := range Episodes(mask, tr.interval) {
			if ep.Idle {
				idleEp.Add(ep.Duration())
			} else {
				nonIdleEp.Add(ep.Duration())
			}
		}
	}
	cs.Samples = total
	if total == 0 {
		return cs
	}
	cs.NonIdleFraction = float64(nonIdle) / float64(total)
	cs.MeanCPU = cpuSum / float64(total)
	if idle := total - nonIdle; idle > 0 {
		cs.MeanCPUIdle = cpuIdleSum / float64(idle)
	}
	if nonIdle > 0 {
		cs.MeanCPUNonIdle = cpuNonIdleSum / float64(nonIdle)
		cs.FracNonIdleBelow10 = float64(below10) / float64(nonIdle)
	}
	cs.MeanIdleEpisode = idleEp.Mean()
	cs.MeanNonIdleEpisode = nonIdleEp.Mean()
	return cs
}

// Fig4 reproduces Figure 4: the CDF of available memory over all samples,
// over idle samples, and over non-idle samples. The returned ECDFs are in
// megabytes. Generated traces are synthesized in full first, in parallel.
func Fig4(traces []*Trace) (all, idle, nonIdle *stats.ECDF) {
	fillCorpus(traces)
	all, idle, nonIdle = &stats.ECDF{}, &stats.ECDF{}, &stats.ECDF{}
	for _, tr := range traces {
		for i, isIdle := range tr.IdleMask() {
			free := tr.Sample(i).FreeMB
			all.Add(free)
			if isIdle {
				idle.Add(free)
			} else {
				nonIdle.Add(free)
			}
		}
	}
	return all, idle, nonIdle
}

// FracAtLeast returns the fraction of time at least mb megabytes are free,
// per the Figure 4 reading ("90% of time, more than 14 Mbytes of memory
// available").
func FracAtLeast(e *stats.ECDF, mb float64) float64 {
	if e.N() == 0 {
		return 0
	}
	// P(X >= mb) = 1 - P(X < mb); with a continuous signal P(X < mb) is
	// approximated by P(X <= mb).
	return 1 - e.At(mb-1e-9)
}
