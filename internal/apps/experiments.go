package apps

import (
	"fmt"
	"math"

	"lingerlonger/internal/exp"
	"lingerlonger/internal/parallel"
	"lingerlonger/internal/stats"
)

// The application sweeps run in two phases on the internal/exp worker
// pool: first the per-application idle-cluster baselines, then every sweep
// point, each with an RNG derived from (seed, phase, index). Worker count
// never changes the results; see the exp package documentation.

// Fig12Point is one bar of Figure 12: the slowdown of an application on an
// eight-node cluster with the given number of non-idle nodes at the given
// local utilization.
type Fig12Point struct {
	App       string
	NonIdle   int     // 0..8 non-idle nodes
	LocalUtil float64 // utilization of the non-idle nodes (0.10..0.40)
	Slowdown  float64 // versus running on eight idle nodes
}

// baselines runs each application profile on an all-idle cluster of size
// procs, in parallel, seeding each run from its own stream of master. The
// sweep argument names the phase for checkpoint keys (each caller runs its
// baselines under a distinct ID).
func baselines(r *exp.Runner, sweep string, master int64, procs int) ([]float64, error) {
	profiles := Profiles()
	return exp.RunSeeded(r, sweep, master, len(profiles), func(i int, rng *stats.RNG) (float64, error) {
		cfg, err := profiles[i].BSPFor(procs)
		if err != nil {
			return 0, err
		}
		cfg.Rec = r.Recorder()
		return parallel.RunBSP(cfg, make([]float64, procs), rng)
	})
}

// Fig12 reproduces Figure 12: sor, water and fft on an 8-node cluster with
// the number of non-idle nodes swept 0..8 and their local utilization at
// 10, 20, 30 and 40%. The 108 grid points run under r's execution policy
// (nil selects a plain GOMAXPROCS pool) as sweeps "fig12/base" and
// "fig12/points".
func Fig12(r *exp.Runner, seed int64) ([]Fig12Point, error) {
	const procs = 8
	utils := []float64{0.10, 0.20, 0.30, 0.40}
	perProfile := len(utils) * (procs + 1)
	profiles := Profiles()

	base, err := baselines(r, "fig12/base", exp.DeriveSeed(seed, 0), procs)
	if err != nil {
		return nil, err
	}
	ptsMaster := exp.DeriveSeed(seed, 1)
	n := len(profiles) * perProfile
	return exp.RunSeeded(r, "fig12/points", ptsMaster, n, func(i int, rng *stats.RNG) (Fig12Point, error) {
		p := profiles[i/perProfile]
		rest := i % perProfile
		lusg := utils[rest/(procs+1)]
		nonIdle := rest % (procs + 1)

		cfg, err := p.BSPFor(procs)
		if err != nil {
			return Fig12Point{}, err
		}
		cfg.Rec = r.Recorder()
		uv := make([]float64, procs)
		for k := 0; k < nonIdle; k++ {
			uv[k] = lusg
		}
		tm, err := parallel.RunBSP(cfg, uv, rng)
		if err != nil {
			return Fig12Point{}, err
		}
		return Fig12Point{
			App:       p.Name,
			NonIdle:   nonIdle,
			LocalUtil: lusg,
			Slowdown:  tm / base[i/perProfile],
		}, nil
	})
}

// Fig13Point is one x-position of Figure 13: slowdown (versus a fully idle
// 16-node run) under reconfiguration and the two linger variants, for one
// application, given the number of idle nodes.
type Fig13Point struct {
	App       string
	IdleNodes int // 16..0
	// Reconfig reconfigures to the largest power-of-two number of idle
	// nodes (+Inf when none are idle).
	Reconfig float64
	// LL16 runs 16 processes, lingering on (16 - idle) non-idle nodes.
	LL16 float64
	// LL8 runs 8 processes on idle nodes while at least 8 exist, lingering
	// otherwise.
	LL8 float64
}

// Fig13Config parameterizes the Figure 13 experiment.
type Fig13Config struct {
	ClusterSize int     // the paper: 16
	NonIdleUtil float64 // the paper: 0.20
	Seed        int64
	// Exec supplies the sweep execution policy (pool size, retries,
	// watchdog, checkpointing); nil selects a plain GOMAXPROCS pool.
	Exec *exp.Runner
}

// DefaultFig13Config returns the paper's setting.
func DefaultFig13Config() Fig13Config {
	return Fig13Config{ClusterSize: 16, NonIdleUtil: 0.20, Seed: 1}
}

// Fig13 reproduces Figure 13 for all three applications. Each (application,
// idle count) pair is one task on the exp worker pool; within a task the
// three strategies share the task's RNG sequentially.
func Fig13(cfg Fig13Config) ([]Fig13Point, error) {
	if cfg.ClusterSize <= 0 {
		return nil, fmt.Errorf("apps: ClusterSize must be positive, got %d", cfg.ClusterSize)
	}
	profiles := Profiles()
	base, err := baselines(cfg.Exec, "fig13/base", exp.DeriveSeed(cfg.Seed, 0), cfg.ClusterSize)
	if err != nil {
		return nil, err
	}

	perProfile := cfg.ClusterSize + 1
	n := len(profiles) * perProfile
	ptsMaster := exp.DeriveSeed(cfg.Seed, 1)
	return exp.RunSeeded(cfg.Exec, "fig13/points", ptsMaster, n, func(i int, rng *stats.RNG) (Fig13Point, error) {
		p := profiles[i/perProfile]
		idle := cfg.ClusterSize - i%perProfile
		pt := Fig13Point{App: p.Name, IdleNodes: idle}

		runOn := func(procs, nonIdle int) (float64, error) {
			c, err := p.BSPFor(procs)
			if err != nil {
				return 0, err
			}
			c.Rec = cfg.Exec.Recorder()
			utils := make([]float64, procs)
			for k := 0; k < nonIdle && k < procs; k++ {
				utils[k] = cfg.NonIdleUtil
			}
			tm, err := parallel.RunBSP(c, utils, rng)
			if err != nil {
				return 0, err
			}
			return tm / base[i/perProfile], nil
		}

		// Reconfiguration: largest power of two idle nodes.
		if kr := largestPow2(idle); kr == 0 {
			pt.Reconfig = math.Inf(1)
		} else {
			sd, err := runOn(kr, 0)
			if err != nil {
				return Fig13Point{}, err
			}
			pt.Reconfig = sd
		}

		// 16-process lingering.
		sd, err := runOn(cfg.ClusterSize, cfg.ClusterSize-idle)
		if err != nil {
			return Fig13Point{}, err
		}
		pt.LL16 = sd

		// 8-process lingering: idle nodes first.
		nonIdle8 := 8 - idle
		if nonIdle8 < 0 {
			nonIdle8 = 0
		}
		sd, err = runOn(8, nonIdle8)
		if err != nil {
			return Fig13Point{}, err
		}
		pt.LL8 = sd

		return pt, nil
	})
}

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
