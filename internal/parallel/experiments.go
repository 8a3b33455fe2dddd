package parallel

import (
	"fmt"
	"math"

	"lingerlonger/internal/exp"
	"lingerlonger/internal/stats"
)

// The figure sweeps in this file fan their points out across the
// internal/exp worker pool. Every point derives its own RNG from
// (seed, point index), so the results are identical for any worker count;
// see the exp package documentation for the two rules that make this safe.

// Fig9Point is one x-position of Figure 9: slowdown of an eight-process
// bulk-synchronous job when one node is non-idle at the given utilization.
type Fig9Point struct {
	Utilization float64
	Slowdown    float64
}

// Fig9 reproduces Figure 9: the paper's eight-process synthetic job
// (100 ms synchronization, NEWS messaging) with exactly one non-idle node
// whose local utilization sweeps 0..90%. The ten points run under r's
// execution policy (nil selects a plain GOMAXPROCS pool) as sweep "fig9".
func Fig9(r *exp.Runner, seed int64) ([]Fig9Point, error) {
	cfg := DefaultBSPConfig()
	cfg.Rec = r.Recorder()
	return exp.RunSeeded(r, "fig9", seed, 10, func(i int, rng *stats.RNG) (Fig9Point, error) {
		u := float64(i) / 10
		sd, err := Slowdown(cfg, utilVector(cfg.Procs, 1, u), rng)
		if err != nil {
			return Fig9Point{}, err
		}
		return Fig9Point{Utilization: u, Slowdown: sd}, nil
	})
}

// Fig10Point is one point of Figure 10: slowdown versus synchronization
// granularity for a given number of non-idle nodes at 20% utilization.
type Fig10Point struct {
	GranularityMS float64 // computation time between synchronizations
	NonIdleNodes  int
	Slowdown      float64
}

// Fig10 reproduces Figure 10: synchronization granularity from 10 ms to
// 10 s against slowdown, with 1, 2, 4 and 8 of the eight nodes non-idle at
// 20% local utilization. The 40 grid points run under r's execution policy
// as sweep "fig10".
func Fig10(r *exp.Runner, seed int64) ([]Fig10Point, error) {
	granularitiesMS := []float64{10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}
	nonIdleCounts := []int{1, 2, 4, 8}
	n := len(granularitiesMS) * len(nonIdleCounts)
	return exp.RunSeeded(r, "fig10", seed, n, func(i int, rng *stats.RNG) (Fig10Point, error) {
		nonIdle := nonIdleCounts[i/len(granularitiesMS)]
		g := granularitiesMS[i%len(granularitiesMS)]
		cfg := DefaultBSPConfig()
		cfg.Rec = r.Recorder()
		cfg.ComputePerPhase = g / 1000
		// Keep total simulated work roughly constant so coarse
		// granularities do not dominate the run time.
		cfg.Phases = int(math.Max(8, math.Min(200, 20000/g)))
		sd, err := Slowdown(cfg, utilVector(cfg.Procs, nonIdle, 0.20), rng)
		if err != nil {
			return Fig10Point{}, err
		}
		return Fig10Point{GranularityMS: g, NonIdleNodes: nonIdle, Slowdown: sd}, nil
	})
}

// ReconfigConfig parameterizes the Figure 11 head-to-head comparison of
// lingering against reconfiguration on a dedicated-size cluster.
type ReconfigConfig struct {
	ClusterSize  int     // total nodes (the paper: 32)
	LLSizes      []int   // linger policy variants: run with exactly k processes
	NonIdleUtil  float64 // local utilization of non-idle nodes (the paper: 20%)
	SyncGran     float64 // synchronization granularity, seconds (the paper: 0.5)
	TotalWork    float64 // total CPU seconds across all processes
	MsgsPerPhase int
	MsgLatency   float64
	Seed         int64
	// Exec supplies the sweep execution policy (pool size, retries,
	// watchdog, checkpointing); nil selects a plain GOMAXPROCS pool.
	Exec *exp.Runner
}

// DefaultReconfigConfig returns the paper's Figure 11 setting: a 32-node
// cluster, 500 ms synchronization, 20% non-idle utilization, and a job
// sized so a full idle cluster finishes in about one second of wall time.
func DefaultReconfigConfig() ReconfigConfig {
	return ReconfigConfig{
		ClusterSize:  32,
		LLSizes:      []int{8, 16, 32},
		NonIdleUtil:  0.20,
		SyncGran:     0.5,
		TotalWork:    32,
		MsgsPerPhase: 4,
		MsgLatency:   0.001,
		Seed:         1,
	}
}

// Fig11Point is one x-position of Figure 11: completion times under each
// policy for a given number of idle nodes in the cluster.
type Fig11Point struct {
	IdleNodes int
	// LL maps a linger variant (process count k) to its completion time:
	// the job runs k processes, on idle nodes while enough exist and
	// lingering on non-idle ones otherwise.
	LL map[int]float64
	// Reconfig is the completion time when the job reconfigures to the
	// largest power-of-two number of idle nodes (+Inf when none are idle).
	Reconfig float64
}

// jobFor builds the BSP description for a run on k processes: the total
// work is divided evenly, and the phase count follows from the
// synchronization granularity.
func (c ReconfigConfig) jobFor(k int) BSPConfig {
	perProc := c.TotalWork / float64(k)
	phases := int(math.Ceil(perProc / c.SyncGran))
	if phases < 1 {
		phases = 1
	}
	return BSPConfig{
		Procs:           k,
		ComputePerPhase: perProc / float64(phases),
		Phases:          phases,
		MsgsPerPhase:    c.MsgsPerPhase,
		MsgLatency:      c.MsgLatency,
		ContextSwitch:   100e-6,
	}
}

// largestPow2 returns the largest power of two <= n, or 0 for n <= 0.
func largestPow2(n int) int {
	if n <= 0 {
		return 0
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// Fig11 reproduces Figure 11: for every number of idle nodes from the full
// cluster down to zero, the completion time of the parallel job under the
// linger variants (8, 16, 32 processes) and under power-of-two
// reconfiguration. Reconfiguration cost itself is not charged, matching
// the paper's conservative assumption. Each idle level is one task on the
// exp worker pool; within a task the variant runs share the task's RNG
// sequentially.
func Fig11(c ReconfigConfig) ([]Fig11Point, error) {
	if c.ClusterSize <= 0 {
		return nil, fmt.Errorf("parallel: ClusterSize must be positive, got %d", c.ClusterSize)
	}
	n := c.ClusterSize + 1
	return exp.RunSeeded(c.Exec, "fig11", c.Seed, n, func(i int, rng *stats.RNG) (Fig11Point, error) {
		idle := c.ClusterSize - i
		pt := Fig11Point{IdleNodes: idle, LL: make(map[int]float64)}

		for _, k := range c.LLSizes {
			cfg := c.jobFor(k)
			cfg.Rec = c.Exec.Recorder()
			// k processes: idle nodes first, lingering for the remainder.
			nonIdle := k - idle
			if nonIdle < 0 {
				nonIdle = 0
			}
			utils := utilVector(k, nonIdle, c.NonIdleUtil)
			tm, err := RunBSP(cfg, utils, rng)
			if err != nil {
				return Fig11Point{}, err
			}
			pt.LL[k] = tm
		}

		if kr := largestPow2(idle); kr == 0 {
			pt.Reconfig = infCompletion()
		} else {
			cfg := c.jobFor(kr)
			cfg.Rec = c.Exec.Recorder()
			tm, err := RunBSP(cfg, make([]float64, kr), rng)
			if err != nil {
				return Fig11Point{}, err
			}
			pt.Reconfig = tm
		}
		return pt, nil
	})
}
