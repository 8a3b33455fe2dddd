package scenario

import (
	"encoding/json"
	"fmt"
	"math"

	"lingerlonger/internal/cluster"
	"lingerlonger/internal/exp"
	"lingerlonger/internal/node"
	"lingerlonger/internal/obs"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/trace"
	"lingerlonger/internal/workload"
)

// This file turns a normalized spec into executable sweep points and
// implements the "scenario" task that computes one — the only simulation
// task in the fabric. Config construction, the two-space seed derivation,
// the quick shrink and the result field order are part of the output
// contract: the committed scenarios/ specs must reproduce the golden
// reports under internal/fabric/testdata byte for byte (pinned by
// internal/fabric/scenario_golden_test.go).

// TaskName is the fabric task every scenario point runs under; it is
// registered in fabric.BuiltinTasks so agents and serial drivers agree
// on what a scenario spec means.
const TaskName = "scenario"

// PointParams is the canonical JSON parameter document of one scenario
// point: the fully resolved slice of the spec this point computes.
type PointParams struct {
	// Kind is the simulator branch: KindCluster or KindNode.
	Kind string `json:"kind"`
	// Quick selects the shrunk smoke-run scale.
	Quick bool `json:"quick,omitempty"`
	// Policy is the registered policy name (cluster points).
	Policy string `json:"policy,omitempty"`
	// Workload is the registered workload name (cluster points).
	Workload string `json:"workload,omitempty"`
	// Cluster carries the resolved cluster shape (cluster points).
	Cluster *ClusterParams `json:"cluster,omitempty"`
	// Trace carries the resolved corpus shape (cluster points).
	Trace *TraceParams `json:"trace,omitempty"`
	// Node carries the single grid cell of a node point.
	Node *NodeCell `json:"node,omitempty"`
}

// NodeCell is one (context-switch, utilization) cell of a node scenario.
type NodeCell struct {
	// ContextSwitch is the effective context-switch time, seconds.
	ContextSwitch float64 `json:"cs"`
	// Utilization is the owner CPU utilization.
	Utilization float64 `json:"util"`
	// Duration is the simulated seconds.
	Duration float64 `json:"dur"`
}

// ClusterPoint is the result document of a cluster scenario point. Its
// field names and order are pinned by the golden reports; Workload is the
// paper's workload number for legacy families and the registered name
// for new ones.
type ClusterPoint struct {
	// Policy echoes the registered policy name.
	Policy string `json:"policy"`
	// Workload is the legacy number (1, 2) or the registry name.
	Workload any `json:"workload"`
	// AvgCompletion is the mean submission-to-completion time, seconds.
	AvgCompletion float64 `json:"avgCompletion"`
	// Variation is the coefficient of variation of execution time.
	Variation float64 `json:"variation"`
	// FamilyTime is the completion time of the last job, seconds.
	FamilyTime float64 `json:"familyTime"`
	// LocalDelay is the owner slowdown fraction.
	LocalDelay float64 `json:"localDelay"`
	// Queued is the average per-job seconds in the queued state.
	Queued float64 `json:"queued"`
	// Running is the average per-job seconds running at full speed.
	Running float64 `json:"running"`
	// Lingering is the average per-job seconds lingering or sharing.
	Lingering float64 `json:"lingering"`
	// Paused is the average per-job seconds suspended in place.
	Paused float64 `json:"paused"`
	// Migrating is the average per-job seconds in transit.
	Migrating float64 `json:"migrating"`
	// Migrations counts migrations started.
	Migrations int `json:"migrations"`
	// Evictions counts evictions that found no destination.
	Evictions int `json:"evictions"`
	// Incomplete counts jobs unfinished at the horizon.
	Incomplete int `json:"incomplete"`
}

// NodePoint is the result document of a node scenario point; its field
// names and order are pinned by the golden reports.
type NodePoint struct {
	// ContextSwitch echoes the cell's context-switch time, seconds.
	ContextSwitch float64 `json:"cs"`
	// Utilization echoes the cell's owner utilization.
	Utilization float64 `json:"util"`
	// LDR is the local-delay ratio.
	LDR float64 `json:"ldr"`
	// FCSR is the foreign cycle-stealing ratio.
	FCSR float64 `json:"fcsr"`
}

// quickUtils is the fixed utilization grid quick node runs use.
var quickUtils = []float64{0, 0.3, 0.6, 0.9}

// Expand expands a normalized spec into its point specs: the sweep ID is
// the scenario name, parameters are canonical JSON, and per-point seeds
// come from exp.DeriveSeed(spec.Seed, index) — so the expansion is a
// pure function of (spec, quick) and fabric runs stay byte-identical to
// serial ones. Cluster scenarios iterate workloads (outer) x policies x
// replications (inner); node scenarios iterate context switches (outer)
// x utilizations (inner). quick shrinks the computation, never the axes
// — except node utilizations and duration, which quick pins to the fixed
// smoke grid.
func Expand(s *Spec, quick bool) (string, []exp.PointSpec, error) {
	if err := s.Normalize(); err != nil {
		return "", nil, err
	}
	var specs []exp.PointSpec
	add := func(params PointParams) error {
		b, err := json.Marshal(params)
		if err != nil {
			return err
		}
		i := len(specs)
		specs = append(specs, exp.PointSpec{
			Task:   TaskName,
			Sweep:  s.Name,
			Index:  i,
			Seed:   exp.DeriveSeed(s.Seed, i),
			Params: b,
		})
		return nil
	}
	switch s.Kind {
	case KindCluster:
		wls, pols, reps := []string{s.Workload}, []string{s.Policy}, 1
		if s.Sweep != nil {
			if len(s.Sweep.Workloads) > 0 {
				wls = s.Sweep.Workloads
			}
			if len(s.Sweep.Policies) > 0 {
				pols = s.Sweep.Policies
			}
			reps = s.Sweep.Seeds
		}
		for _, wl := range wls {
			for _, pol := range pols {
				for r := 0; r < reps; r++ {
					err := add(PointParams{
						Kind:     KindCluster,
						Quick:    quick,
						Policy:   pol,
						Workload: wl,
						Cluster:  s.Cluster,
						Trace:    s.Trace,
					})
					if err != nil {
						return "", nil, err
					}
				}
			}
		}
	case KindNode:
		utils, dur := s.Node.Utilizations, s.Node.Duration
		if quick {
			utils, dur = quickUtils, 200
		}
		for _, cs := range s.Node.ContextSwitches {
			for _, u := range utils {
				err := add(PointParams{
					Kind:  KindNode,
					Quick: quick,
					Node:  &NodeCell{ContextSwitch: cs, Utilization: u, Duration: dur},
				})
				if err != nil {
					return "", nil, err
				}
			}
		}
	}
	return s.Name, specs, nil
}

// Task computes one scenario point — the exp.TaskFunc behind TaskName.
// It is pure: all randomness derives from spec.Seed, and the output is
// canonical JSON (ClusterPoint or NodePoint).
func Task(spec exp.PointSpec) ([]byte, error) { return runPoint(spec, nil) }

// runPoint computes one point as Task does and counts what it simulates
// in rec (nil counts nothing): the cluster and node counters and the
// trace samples synthesized. The counters are outputs only, so rec never
// changes the bytes.
func runPoint(spec exp.PointSpec, rec *obs.Recorder) ([]byte, error) {
	var p PointParams
	if err := json.Unmarshal(spec.Params, &p); err != nil {
		return nil, fmt.Errorf("scenario: point params: %w", err)
	}
	switch p.Kind {
	case KindCluster:
		return runClusterPoint(p, spec.Seed, rec)
	case KindNode:
		return runNodePoint(p, spec.Seed, rec)
	default:
		return nil, fmt.Errorf("scenario: point kind %q (want %q or %q)", p.Kind, KindCluster, KindNode)
	}
}

func runClusterPoint(p PointParams, seed int64, rec *obs.Recorder) ([]byte, error) {
	pe, ok := Policies.Lookup(p.Policy)
	if !ok {
		return nil, fmt.Errorf("scenario: policy %q not registered (have %v)", p.Policy, Policies.Names())
	}
	we, ok := Workloads.Lookup(p.Workload)
	if !ok {
		return nil, fmt.Errorf("scenario: workload %q not registered (have %v)", p.Workload, Workloads.Names())
	}
	if p.Cluster == nil || p.Trace == nil {
		return nil, fmt.Errorf("scenario: cluster point without cluster/trace params")
	}
	if p.Cluster.MemoryCheck == nil {
		return nil, fmt.Errorf("scenario: cluster point without cluster.memoryCheck")
	}
	cfg := cluster.DefaultConfig()
	cfg.Policy = pe.Policy
	we.Apply(&cfg, p.Quick)
	cfg.Nodes = p.Cluster.Nodes
	cfg.JobMB = p.Cluster.JobMB
	cfg.MemoryCheck = *p.Cluster.MemoryCheck
	cfg.PauseTime = p.Cluster.PauseTime
	cfg.ContextSwitch = p.Cluster.ContextSwitch
	cfg.MaxTime = p.Cluster.MaxTime
	cfg.Rec = rec
	tcfg := trace.DefaultConfig()
	machines := p.Trace.Machines
	tcfg.Days = p.Trace.Days
	if p.Quick {
		machines, tcfg.Days = 6, 1
		cfg.Nodes = 16
		cfg.NumJobs = math.Min(cfg.NumJobs, 24)
		cfg.JobCPU = 120
	}
	// Two independent seed spaces off the point seed: one for the trace
	// corpus, one for the simulation itself.
	corpus, err := trace.GenerateCorpus(tcfg, machines, stats.NewRNG(exp.DeriveSeed(seed, 0)))
	if err != nil {
		return nil, err
	}
	cfg.Seed = exp.DeriveSeed(seed, 1)
	res, err := cluster.Run(cfg, corpus)
	if err != nil {
		return nil, err
	}
	var wlLabel any = we.Name
	if we.Legacy != 0 {
		wlLabel = we.Legacy
	}
	return json.Marshal(ClusterPoint{
		Policy:        p.Policy,
		Workload:      wlLabel,
		AvgCompletion: res.AvgCompletion,
		Variation:     res.Variation,
		FamilyTime:    res.FamilyTime,
		LocalDelay:    res.LocalDelay,
		Queued:        res.Breakdown.Queued,
		Running:       res.Breakdown.Running,
		Lingering:     res.Breakdown.Lingering,
		Paused:        res.Breakdown.Paused,
		Migrating:     res.Breakdown.Migrating,
		Migrations:    res.Migrations,
		Evictions:     res.Evictions,
		Incomplete:    res.Incomplete,
	})
}

func runNodePoint(p PointParams, seed int64, rec *obs.Recorder) ([]byte, error) {
	c := p.Node
	if c == nil {
		return nil, fmt.Errorf("scenario: node point without a cell")
	}
	if c.Duration <= 0 {
		return nil, fmt.Errorf("scenario: node duration %g must be positive", c.Duration)
	}
	n := node.New(
		node.Config{ContextSwitch: c.ContextSwitch, BurstLookahead: 64, Rec: rec},
		workload.DefaultTable(),
		workload.ConstantUtilization(c.Utilization),
		stats.NewRNG(seed),
	)
	n.ServeForeign(math.Inf(1), c.Duration)
	return json.Marshal(NodePoint{
		ContextSwitch: c.ContextSwitch,
		Utilization:   c.Utilization,
		LDR:           n.LDR(),
		FCSR:          n.FCSR(),
	})
}

// Run computes scenario points on a local worker pool, returning results
// in index order — byte-identical for any workers value (each point is a
// pure function of its spec). workers <= 0 selects GOMAXPROCS. rec, when
// non-nil, counts computed points under scenario.runs and receives each
// point's simulation counters (see runPoint).
func Run(workers int, specs []exp.PointSpec, rec *obs.Recorder) ([][]byte, error) {
	for i, spec := range specs {
		if spec.Task != TaskName {
			return nil, fmt.Errorf("scenario: spec %d has task %q (want %q)", i, spec.Task, TaskName)
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	results, err := exp.Map(workers, len(specs), func(i int) ([]byte, error) {
		return runPoint(specs[i], rec)
	})
	if err != nil {
		return nil, err
	}
	rec.Counter(obs.ScenarioRuns).Add(int64(len(specs)))
	return results, nil
}
