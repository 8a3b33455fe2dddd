package apps

import (
	"fmt"
	"math"

	"lingerlonger/internal/exp"
	"lingerlonger/internal/parallel"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/workload"
)

// The paper's conclusion: "a hybrid strategy of lingering and
// reconfiguration may be the best approach". This file implements that
// strategy as a sampling scheduler: given the current number of idle
// nodes, it probes each candidate process count with a short simulated
// prefix of the application — idle nodes first, lingering on non-idle
// ones for the remainder — and picks the count whose probe predicts the
// best completion time.

// HybridChoice is the hybrid scheduler's decision for one cluster state.
type HybridChoice struct {
	Procs     int     // chosen process count
	Predicted float64 // predicted completion time, seconds
}

// probeIters is the number of iterations the hybrid scheduler samples per
// candidate before committing.
const probeIters = 12

// PickHybrid chooses the best process count from candidates for running
// the application on a cluster with idle idle nodes, the rest non-idle at
// utilization u. Each candidate is probed with a short simulated prefix
// (probeIters iterations) and the observed per-iteration time is
// extrapolated to the full run.
func (p Profile) PickHybrid(candidates []int, idle int, u float64, rng *stats.RNG) (HybridChoice, error) {
	if err := p.Validate(); err != nil {
		return HybridChoice{}, err
	}
	if len(candidates) == 0 {
		return HybridChoice{}, fmt.Errorf("apps: no candidate sizes")
	}
	if u < 0 || u >= 1 {
		return HybridChoice{}, fmt.Errorf("apps: non-idle utilization %g out of [0,1)", u)
	}
	best := HybridChoice{Predicted: math.Inf(1)}
	for _, k := range candidates {
		if k <= 0 {
			return HybridChoice{}, fmt.Errorf("apps: candidate size %d", k)
		}
		cfg, err := p.BSPFor(k)
		if err != nil {
			return HybridChoice{}, err
		}
		cfg.Phases = probeIters
		lingering := k - idle
		if lingering < 0 {
			lingering = 0
		}
		utils := make([]float64, k)
		for i := 0; i < lingering; i++ {
			utils[i] = u
		}
		probe, err := parallel.RunBSP(cfg, utils, rng)
		if err != nil {
			return HybridChoice{}, err
		}
		predicted := probe / probeIters * float64(p.Iters)
		if predicted < best.Predicted {
			best = HybridChoice{Procs: k, Predicted: predicted}
		}
	}
	return best, nil
}

// PredictIterTime is the closed-form per-iteration estimate underlying the
// linger-vs-reconfigure intuition: fluid compute stretch for lingering
// processes plus the serialized sync chain (one residual-run-burst wait
// per lingering process) plus communication. It underestimates compounding
// barrier effects at large lingering counts — which is why PickHybrid
// probes instead — but is useful for analysis.
func (p Profile) PredictIterTime(procs, idle int, u float64, table *workload.Table) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if procs <= 0 {
		return 0, fmt.Errorf("apps: %d processes", procs)
	}
	if u < 0 || u >= 1 {
		return 0, fmt.Errorf("apps: utilization %g out of [0,1)", u)
	}
	if table == nil {
		table = workload.DefaultTable()
	}
	params := table.ParamsAt(u)
	var residual float64
	if params.RunMean > 0 {
		residual = (params.RunVar/params.RunMean + params.RunMean) / 2
	}
	lingering := procs - idle
	if lingering < 0 {
		lingering = 0
	}
	scale := 16 / float64(procs)
	compute := p.ComputePerIter * scale
	if lingering > 0 {
		compute /= 1 - u
	}
	chain := float64(procs)*p.SyncCPUPerIter +
		float64(lingering)*(u*residual+p.SyncCPUPerIter*u/(1-u))
	comm := float64(p.MsgsPerIter) * p.MsgLatency * scale
	return compute + chain + comm, nil
}

// HybridPoint extends the Figure 13 comparison with the hybrid strategy's
// actual (simulated) slowdown at each idle count.
type HybridPoint struct {
	App       string
	IdleNodes int
	Procs     int     // size the hybrid scheduler picked
	Slowdown  float64 // simulated slowdown of the hybrid choice
	BestFixed float64 // best of the fixed strategies (LL-16, LL-8, reconfig)
}

// FigHybrid evaluates the hybrid scheduler against the Figure 13 fixed
// strategies: at every idle count it lets PickHybrid choose between 8 and
// 16 processes and simulates the choice. Like the other application
// sweeps, the points run on the exp worker pool with per-point derived
// seeds (streams 2 and 3 of cfg.Seed; Fig13 consumes streams 0 and 1), so
// the results are independent of the worker count. Sweep IDs are
// "hybrid/base" and "hybrid/points" (the embedded Fig13 run keeps its own
// "fig13/..." IDs, so on a checkpointed rerun its points restore).
func FigHybrid(cfg Fig13Config) ([]HybridPoint, error) {
	fixed, err := Fig13(cfg)
	if err != nil {
		return nil, err
	}
	profiles := Profiles()
	base, err := baselines(cfg.Exec, "hybrid/base", exp.DeriveSeed(cfg.Seed, 2), cfg.ClusterSize)
	if err != nil {
		return nil, err
	}

	perProfile := cfg.ClusterSize + 1
	n := len(profiles) * perProfile
	ptsMaster := exp.DeriveSeed(cfg.Seed, 3)
	return exp.RunSeeded(cfg.Exec, "hybrid/points", ptsMaster, n, func(i int, rng *stats.RNG) (HybridPoint, error) {
		p := profiles[i/perProfile]
		idle := cfg.ClusterSize - i%perProfile

		choice, err := p.PickHybrid([]int{8, cfg.ClusterSize}, idle, cfg.NonIdleUtil, rng)
		if err != nil {
			return HybridPoint{}, err
		}
		c, err := p.BSPFor(choice.Procs)
		if err != nil {
			return HybridPoint{}, err
		}
		c.Rec = cfg.Exec.Recorder()
		nonIdle := choice.Procs - idle
		if nonIdle < 0 {
			nonIdle = 0
		}
		utils := make([]float64, choice.Procs)
		for k := 0; k < nonIdle; k++ {
			utils[k] = cfg.NonIdleUtil
		}
		tm, err := parallel.RunBSP(c, utils, rng)
		if err != nil {
			return HybridPoint{}, err
		}
		bestFixed := math.Inf(1)
		for _, f := range fixed {
			if f.App == p.Name && f.IdleNodes == idle {
				bestFixed = math.Min(f.LL16, math.Min(f.LL8, f.Reconfig))
			}
		}
		return HybridPoint{
			App:       p.Name,
			IdleNodes: idle,
			Procs:     choice.Procs,
			Slowdown:  tm / base[i/perProfile],
			BestFixed: bestFixed,
		}, nil
	})
}
