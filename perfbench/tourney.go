package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"lingerlonger/internal/cluster"
	"lingerlonger/internal/exp"
	"lingerlonger/internal/obs"
	"lingerlonger/internal/scenario"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/trace"
)

// seed1TourneyDigest is the SHA-256 of the paper-scale tournament report
// for seed 1, the bytes `lltourney -seed 1` prints. A change that moves
// it changed what the simulator computes.
const seed1TourneyDigest = "1ba58889404182ccfe9208c5c48908342fff8c823be12b510ffd4803afbddc65"

// tournamentSpec is scenarios/tournament.json with the run's seed: every
// policy on every workload family at paper scale (64 nodes, a 16-machine
// by 7-day trace corpus per cell).
func tournamentSpec(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"scenarioVersion":1,"name":"tournament","kind":"cluster",`+
		`"sweep":{"workloads":["w1","w2","w3","pareto","lognormal"],"policies":["LL","LF","IE","PM","FS"]},`+
		`"seed":%d}`, seed))
}

// tourneyBench is the tourney workload: the policy tournament run
// serially, spec in and validated report out, with no network and no
// cache.
type tourneyBench struct {
	seed   int64
	quick  bool
	spec   *scenario.Spec
	cells  []exp.PointSpec
	report []byte    // the first report of the run; every later one must match
	expand []float64 // set-up times, ms
}

func newTourney(cfg runConfig) bench {
	return &tourneyBench{seed: cfg.seed, quick: cfg.size.quickTourney}
}

// Decoding and expanding the spec takes tens of microseconds, so its
// median time needs many set-ups to be steady.
func (b *tourneyBench) setupReps() int { return 101 }

func (b *tourneyBench) setup(*obs.Recorder) error {
	t0 := time.Now()
	spec, err := scenario.Decode(tournamentSpec(b.seed))
	if err != nil {
		return err
	}
	_, cells, err := scenario.Expand(spec, b.quick)
	if err != nil {
		return err
	}
	b.expand = append(b.expand, ms(time.Since(t0)))
	b.spec, b.cells = spec, cells
	return nil
}

func (b *tourneyBench) close() {}

// run makes whole tournaments: serially through scenario.Run in the
// untraced pass, and in the traced pass through the same calls split at
// the layer boundaries (trace synthesis, cluster simulation, encoding),
// which must give the same bytes.
func (b *tourneyBench) run(p *pass) error {
	for rep := 0; p.more(rep); rep++ {
		t0 := time.Now()
		root := p.tr.begin("tourney", noSpan, int64(rep))
		results := make([][]byte, len(b.cells))
		for i := range b.cells {
			c0 := time.Now()
			var err error
			if p.tr == nil {
				var out [][]byte
				out, err = scenario.Run(1, b.cells[i:i+1], nil)
				if err == nil {
					results[i] = out[0]
				}
			} else {
				results[i], err = b.tracedCell(p, root, b.cells[i])
			}
			p.attempt++
			if err != nil {
				p.failed++
				return fmt.Errorf("tourney cell %d: %w", i, err)
			}
			p.items = append(p.items, ms(time.Since(c0)))
		}
		h := p.tr.begin("scenario.Rank", root, int64(rep))
		data, err := b.rank(results)
		p.tr.end(h)
		p.tr.end(root)
		if err != nil {
			return err
		}
		p.walls = append(p.walls, time.Since(t0).Seconds())
		b.checkReport(p, data)
		if err := p.sampleSetups(); err != nil {
			return err
		}
	}
	if p.tr != nil {
		b.layerMetrics(p)
	}
	return nil
}

// rank turns cell results into the validated report bytes.
func (b *tourneyBench) rank(results [][]byte) ([]byte, error) {
	rep, err := scenario.Rank(b.spec, b.quick, results)
	if err != nil {
		return nil, err
	}
	data, err := scenario.EncodeTournament(rep)
	if err != nil {
		return nil, err
	}
	if _, err := scenario.ValidateTournamentReport(data); err != nil {
		return nil, err
	}
	return data, nil
}

// checkReport checks one report: every cell complete, the seed-1 digest
// at paper scale, and the same bytes as every other report of the run,
// traced or not.
func (b *tourneyBench) checkReport(p *pass, data []byte) {
	if b.report != nil {
		if !bytes.Equal(data, b.report) {
			p.failf("tourney: report differs between repetitions or from the traced decomposition")
		}
		return
	}
	b.report = data
	rep, err := scenario.ValidateTournamentReport(data)
	if err != nil {
		p.failf("tourney: %v", err)
		return
	}
	for _, c := range rep.Cells {
		if c.Incomplete > 0 {
			p.failf("tourney: cell %s/%s left %d jobs incomplete", c.Workload, c.Policy, c.Incomplete)
		}
	}
	sum := sha256.Sum256(data)
	digest := hex.EncodeToString(sum[:])
	p.notef("tourney: report sha256 %s", digest)
	if b.seed == 1 && !b.quick && digest != seed1TourneyDigest {
		p.failf("tourney: seed-1 report digest %s, want %s", digest, seed1TourneyDigest)
	}
}

// tracedCell computes one tournament cell exactly as scenario.Task does,
// with spans around the layer calls and the pass recorder in the cluster
// config.
func (b *tourneyBench) tracedCell(p *pass, parent int, spec exp.PointSpec) ([]byte, error) {
	id := int64(spec.Index)
	cell := p.tr.begin("scenario.cell", parent, id)
	defer p.tr.end(cell)
	var pp scenario.PointParams
	if err := json.Unmarshal(spec.Params, &pp); err != nil {
		return nil, err
	}
	pe, ok := scenario.Policies.Lookup(pp.Policy)
	if !ok {
		return nil, fmt.Errorf("policy %q not registered", pp.Policy)
	}
	we, ok := scenario.Workloads.Lookup(pp.Workload)
	if !ok {
		return nil, fmt.Errorf("workload %q not registered", pp.Workload)
	}
	if pp.Cluster == nil || pp.Trace == nil {
		return nil, fmt.Errorf("cluster point without cluster/trace params")
	}
	cfg := cluster.DefaultConfig()
	cfg.Policy = pe.Policy
	we.Apply(&cfg, pp.Quick)
	cfg.Nodes = pp.Cluster.Nodes
	cfg.JobMB = pp.Cluster.JobMB
	cfg.MemoryCheck = *pp.Cluster.MemoryCheck
	cfg.PauseTime = pp.Cluster.PauseTime
	cfg.ContextSwitch = pp.Cluster.ContextSwitch
	cfg.MaxTime = pp.Cluster.MaxTime
	tcfg := trace.DefaultConfig()
	machines := pp.Trace.Machines
	tcfg.Days = pp.Trace.Days
	if pp.Quick {
		machines, tcfg.Days = 6, 1
		cfg.Nodes = 16
		cfg.NumJobs = math.Min(cfg.NumJobs, 24)
		cfg.JobCPU = 120
	}
	h := p.tr.begin("trace.GenerateCorpus", cell, id)
	corpus, err := trace.GenerateCorpus(tcfg, machines, stats.NewRNG(exp.DeriveSeed(spec.Seed, 0)))
	p.tr.end(h)
	if err != nil {
		return nil, err
	}
	cfg.Seed = exp.DeriveSeed(spec.Seed, 1)
	cfg.Rec = p.rec
	h = p.tr.begin("cluster.Run", cell, id)
	res, err := cluster.Run(cfg, corpus)
	p.tr.end(h)
	if err != nil {
		return nil, err
	}
	var wl any = we.Name
	if we.Legacy != 0 {
		wl = we.Legacy
	}
	h = p.tr.begin("encode", cell, id)
	defer p.tr.end(h)
	return json.Marshal(scenario.ClusterPoint{
		Policy:        pp.Policy,
		Workload:      wl,
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

// layerMetrics fills the traced pass's per-layer metrics.
func (b *tourneyBench) layerMetrics(p *pass) {
	reps := float64(len(p.walls))
	self := p.tr.selfByName()
	c := p.counters()
	p.layer["scenario.expand_ms"] = median(b.expand)
	p.layer["scenario.rank_ms"] = self["scenario.Rank"] * 1e3 / reps
	p.layer["trace.synth_s"] = self["trace.GenerateCorpus"] / reps
	p.layer["trace.synth_share"] = self["trace.GenerateCorpus"] / sum(p.walls)
	p.layer["cluster.run_s"] = self["cluster.Run"] / reps
	p.layer["cluster.placements"] = float64(c[obs.ClusterPlacements]) / reps
	p.layer["cluster.migrations"] = float64(c[obs.ClusterMigrations]) / reps
	p.layer["sim.events"] = float64(c[obs.SimEventsFired]) / reps
	p.layer["node.preemptions"] = float64(c[obs.NodePreemptions]) / reps
}
