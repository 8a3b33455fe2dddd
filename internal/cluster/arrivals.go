package cluster

import (
	"fmt"

	"lingerlonger/internal/obs"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/trace"
)

// ArrivalsConfig parameterizes the open-system extension: instead of a
// batch submitted at t=0 (the paper's setup), foreign jobs arrive by a
// Poisson process and the metric of interest is response time versus
// offered load. The paper leaves this end-to-end evaluation as future
// work; it is included here as a natural extension on the same simulator.
type ArrivalsConfig struct {
	Cluster Config // NumJobs is ignored; arrivals drive the population

	// Rate is the arrival rate in jobs per second.
	Rate float64
	// Duration is the arrival window in seconds; the simulation then
	// drains until every arrived job completes (or Cluster.MaxTime).
	Duration float64
}

// ArrivalsResult summarizes an open-system run.
type ArrivalsResult struct {
	Arrived    int
	Completed  int
	Incomplete int

	// MeanResponse is the mean time from arrival to completion.
	MeanResponse float64
	// P95Response is the 95th-percentile response time.
	P95Response float64
	// MeanQueued is the mean time jobs spent waiting for a node.
	MeanQueued float64
	// OfferedLoad is rate * job CPU / cluster size — the demand per node.
	OfferedLoad float64
	LocalDelay  float64
	Migrations  int
}

// ArrivalBudgetError reports that RunArrivals admitted its arrival budget
// (a few multiples of Rate*Duration) and was about to admit another: the
// signature of a runaway arrival loop, not of a plausible Poisson draw.
type ArrivalBudgetError struct {
	Budget int     // the arrival budget
	At     float64 // instant of the arrival that would exceed it
}

// Error returns the budget, the instant it ran out at, and the likely cause.
func (e *ArrivalBudgetError) Error() string {
	return fmt.Sprintf("cluster: arrival budget of %d exhausted at t=%g (runaway arrival loop?)", e.Budget, e.At)
}

// RunArrivals simulates an open system: jobs of Cluster.JobCPU seconds
// arrive by a Poisson process with the given rate for Duration seconds,
// then the cluster drains. Arrivals are admitted at each trace-window
// boundary of the cluster stepper.
func RunArrivals(cfg ArrivalsConfig, corpus []*trace.Trace) (*ArrivalsResult, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("cluster: arrival rate must be positive, got %g", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("cluster: arrival duration must be positive, got %g", cfg.Duration)
	}
	ccfg := cfg.Cluster
	ccfg.NumJobs = 0
	s, err := newSimulation(ccfg, corpus)
	if err != nil {
		return nil, err
	}

	// The arrival process keeps one pending instant: each arrival draws
	// its successor until the window ends. The expected arrival count is
	// Rate*Duration, so a budget a few multiples above that turns a
	// rescheduling bug into a typed error instead of an infinite loop.
	budget := int(cfg.Rate*cfg.Duration*4) + 10000
	arrivalsC := ccfg.Rec.Counter(obs.SimEventsFired)
	arrivalRNG := stats.NewRNG(ccfg.Seed ^ 0x5ca1ab1e)
	next := arrivalRNG.ExpFloat64() / cfg.Rate
	arrived := 0
	for s.now < ccfg.MaxTime {
		// Admit the arrivals up to the current boundary (so a job is never
		// placed before its arrival instant), then advance the cluster
		// across the window.
		for next <= cfg.Duration && next <= s.now {
			if arrived >= budget {
				return nil, &ArrivalBudgetError{Budget: budget, At: next}
			}
			arrived++
			arrivalsC.Inc()
			j := newJob(s.nextJobID, ccfg.JobCPU, ccfg.JobMB, next)
			s.nextJobID++
			s.jobs = append(s.jobs, j)
			s.queue = append(s.queue, j)
			next += arrivalRNG.ExpFloat64() / cfg.Rate
		}
		s.stepOnce()
		if next > cfg.Duration && s.completed >= len(s.jobs) {
			break
		}
	}

	ccfg.Rec.Histogram(obs.SimRunSeconds).Observe(s.now)
	res := &ArrivalsResult{
		Arrived:     arrived,
		OfferedLoad: cfg.Rate * ccfg.JobCPU / float64(ccfg.Nodes),
		LocalDelay:  s.localDelay(),
		Migrations:  s.migrations,
	}
	var responses, queued []float64
	for _, j := range s.jobs {
		if j.completedAt < 0 {
			res.Incomplete++
			continue
		}
		res.Completed++
		responses = append(responses, j.completionTime())
		queued = append(queued, j.TimeIn(Queued))
	}
	res.MeanResponse = stats.Mean(responses)
	res.P95Response = stats.Quantile(responses, 0.95)
	res.MeanQueued = stats.Mean(queued)
	return res, nil
}
