package cluster

import (
	"fmt"

	"lingerlonger/internal/core"
	"lingerlonger/internal/exp"
	"lingerlonger/internal/obs"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/trace"
)

// Result summarizes a batch run: all jobs submitted at t=0 and the cluster
// simulated until the family completes. The first four fields are the
// Figure 7 metrics.
type Result struct {
	// AvgCompletion is the mean time from submission to completion,
	// including queueing, pauses and migrations (seconds).
	AvgCompletion float64
	// Variation is the standard deviation of job execution time (first
	// start to completion) divided by its mean.
	Variation float64
	// FamilyTime is the completion time of the last job of the family.
	FamilyTime float64
	// LocalDelay is the average slowdown of local CPU requests caused by
	// foreign jobs (the paper reports < 0.5%).
	LocalDelay float64

	// Breakdown is the per-job average time spent in each state — the
	// Figure 8 stack (queued, running, lingering, paused, migrating).
	Breakdown StateBreakdown

	Migrations int
	Evictions  int // evictions that found no destination and requeued
	Incomplete int // jobs unfinished at MaxTime (0 for a healthy run)
	Jobs       []*Job
}

// StateBreakdown is the average per-job time in each scheduling state.
type StateBreakdown struct {
	Queued    float64
	Running   float64
	Lingering float64
	Paused    float64
	Migrating float64
}

// Total returns the sum of the breakdown components.
func (b StateBreakdown) Total() float64 {
	return b.Queued + b.Running + b.Lingering + b.Paused + b.Migrating
}

// Run simulates a batch workload to completion and reports the Figure 7
// metrics and Figure 8 breakdown.
func Run(cfg Config, corpus []*trace.Trace) (*Result, error) {
	s, err := newSimulation(cfg, corpus)
	if err != nil {
		return nil, err
	}
	for !s.batchDone() && s.now < cfg.MaxTime {
		s.stepOnce()
	}
	cfg.Rec.Histogram(obs.SimRunSeconds).Observe(s.now)

	res := &Result{
		LocalDelay: s.localDelay(),
		Migrations: s.migrations,
		Evictions:  s.evictions,
		Jobs:       s.jobs,
	}
	var completion, exec stats.Welford
	var bd StateBreakdown
	for _, j := range s.jobs {
		if j.completedAt < 0 {
			res.Incomplete++
			continue
		}
		completion.Add(j.completionTime())
		exec.Add(j.executionTime())
		if j.completedAt > res.FamilyTime {
			res.FamilyTime = j.completedAt
		}
		bd.Queued += j.TimeIn(Queued)
		bd.Running += j.TimeIn(Running)
		bd.Lingering += j.TimeIn(Lingering)
		bd.Paused += j.TimeIn(Paused)
		bd.Migrating += j.TimeIn(Migrating)
	}
	if n := float64(completion.N()); n > 0 {
		res.AvgCompletion = completion.Mean()
		bd.Queued /= n
		bd.Running /= n
		bd.Lingering /= n
		bd.Paused /= n
		bd.Migrating /= n
		res.Breakdown = bd
	}
	if exec.Mean() > 0 {
		res.Variation = exec.StdDev() / exec.Mean()
	}
	return res, nil
}

// ThroughputResult reports the steady-state throughput experiment: the
// number of jobs in the system is held constant (each completion spawns a
// replacement) for a fixed duration.
type ThroughputResult struct {
	// Throughput is the average CPU seconds delivered to foreign jobs per
	// second of wall-clock — the paper's fourth Figure 7 metric.
	Throughput float64
	// LocalDelay is as in Result.
	LocalDelay float64
	// Completed is the number of jobs finished during the run.
	Completed int
	// Migrations is the number of migrations started.
	Migrations int
}

// RunThroughput simulates the constant-population configuration for dur
// seconds (the paper uses one hour) and reports steady-state throughput.
func RunThroughput(cfg Config, corpus []*trace.Trace, dur float64) (*ThroughputResult, error) {
	if dur <= 0 {
		return nil, fmt.Errorf("cluster: throughput duration must be positive, got %g", dur)
	}
	s, err := newSimulation(cfg, corpus)
	if err != nil {
		return nil, err
	}
	s.replace = true
	for s.now < dur {
		s.stepOnce()
	}
	cfg.Rec.Histogram(obs.SimRunSeconds).Observe(s.now)
	return &ThroughputResult{
		Throughput: s.foreignCPU / dur,
		LocalDelay: s.localDelay(),
		Completed:  s.completed,
		Migrations: s.migrations,
	}, nil
}

// Fig7Row is one cell block of the Figure 7 table: the four metrics for
// one policy under one workload, plus the Figure 8 state breakdown of the
// same batch run.
type Fig7Row struct {
	Policy        string
	AvgCompletion float64
	Variation     float64
	FamilyTime    float64
	Throughput    float64
	LocalDelay    float64
	Breakdown     StateBreakdown
}

// fig7Half is one task result of the Fig7 sweep: either a batch run or a
// throughput run. The fields are exported values (not pointers) so a
// checkpointing Runner can gob-encode the snapshot; Jobs is stripped
// before storing because the Fig7 metrics never read it.
type fig7Half struct {
	Batch Result
	TP    ThroughputResult
}

// Fig7 reproduces the Figure 7 table for one workload configuration:
// batch metrics and the Figure 8 breakdown from Run, plus throughput from
// a constant-population hour. The cfg's Policy field is overridden for
// each of the four policies. The eight underlying simulations (batch +
// throughput per policy) are independent — every one seeds its own RNG
// from cfg.Seed — so they fan out under cfg.Exec (nil: a plain
// GOMAXPROCS pool) as sweep "fig7" without changing any number.
func Fig7(cfg Config, corpus []*trace.Trace, throughputDur float64) ([]Fig7Row, error) {
	// Task 2k is policy k's batch run, task 2k+1 its throughput run.
	halves, err := exp.RunSweep(cfg.Exec, "fig7", 2*len(core.Policies), func(i int) (fig7Half, error) {
		c := cfg
		c.Policy = core.Policies[i/2]
		c.Exec = nil // the inner simulation never fans out
		if i%2 == 0 {
			batch, err := Run(c, corpus)
			if err != nil {
				return fig7Half{}, err
			}
			b := *batch
			b.Jobs = nil
			return fig7Half{Batch: b}, nil
		}
		tp, err := RunThroughput(c, corpus, throughputDur)
		if err != nil {
			return fig7Half{}, err
		}
		return fig7Half{TP: *tp}, nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([]Fig7Row, 0, len(core.Policies))
	for k, p := range core.Policies {
		batch, tp := &halves[2*k].Batch, &halves[2*k+1].TP
		delay := batch.LocalDelay
		if tp.LocalDelay > delay {
			delay = tp.LocalDelay
		}
		rows = append(rows, Fig7Row{
			Policy:        p.String(),
			AvgCompletion: batch.AvgCompletion,
			Variation:     batch.Variation,
			FamilyTime:    batch.FamilyTime,
			Throughput:    tp.Throughput,
			LocalDelay:    delay,
			Breakdown:     batch.Breakdown,
		})
	}
	return rows, nil
}
