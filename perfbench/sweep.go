package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lingerlonger/internal/exp"
	"lingerlonger/internal/fabric"
	"lingerlonger/internal/node"
	"lingerlonger/internal/obs"
	"lingerlonger/internal/runtime"
	"lingerlonger/internal/scenario"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/workload"
)

const (
	sweepAgents = 2   // in-process loopback agents
	sweepDur    = 200 // simulated seconds per point: fine-grain points of about 0.1 ms
	sweepName   = "fig5"
)

// fig5Utils is the full Figure 5 utilization axis, 0 to 95% in 5% steps.
var fig5Utils = func() string {
	var s []string
	for i := 0; i < 20; i++ {
		s = append(s, strconv.FormatFloat(float64(i)*5/100, 'g', -1, 64))
	}
	return strings.Join(s, ",")
}()

// nodeSpec is the j-th node-kind scenario of the run: the Figure 5 grid
// (3 context switches by 20 utilizations) under a seed derived from the
// run's seed.
func nodeSpec(seed int64, j int) []byte {
	return []byte(fmt.Sprintf(`{"scenarioVersion":1,"name":%q,"kind":"node",`+
		`"node":{"cs":[0.0001,0.0003,0.0005],"utils":[%s],"dur":%d},"seed":%d}`,
		sweepName, fig5Utils, sweepDur, exp.DeriveSeed(seed, j)))
}

// execLog collects the executor calls of one fabric run.
type execLog struct {
	tr     *tracer
	parent int
	mu     sync.Mutex
	ms     []float64
	taskS  float64
}

// sweepBench is the sweep-fabric workload: many fine-grain node points
// through fabric.Run against loopback agents, one point in flight per
// agent.
type sweepBench struct {
	seed    int64
	specs   int
	points  []exp.PointSpec
	tasks   *exp.Tasks
	servers []*runtime.AgentServer
	addrs   []string
	log     atomic.Pointer[execLog]
	results [][]byte  // the first run's results; every later run must match
	expand  []float64 // spec decode and expansion per set-up, ms
}

func newSweep(cfg runConfig) bench {
	return &sweepBench{seed: cfg.seed, specs: cfg.size.sweepSpecs, tasks: fabric.BuiltinTasks()}
}

func (b *sweepBench) setupReps() int { return 1 }

// setup expands the node specs into one point list and starts the agents.
func (b *sweepBench) setup(*obs.Recorder) error {
	t0 := time.Now()
	var points []exp.PointSpec
	for j := 0; j < b.specs; j++ {
		spec, err := scenario.Decode(nodeSpec(b.seed, j))
		if err != nil {
			return err
		}
		_, pts, err := scenario.Expand(spec, false)
		if err != nil {
			return err
		}
		for _, pt := range pts {
			pt.Index = len(points)
			points = append(points, pt)
		}
	}
	b.expand = append(b.expand, ms(time.Since(t0)))
	b.points = points
	link := fabric.DefaultLinkConfig()
	for i := 0; i < sweepAgents; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		owner, err := runtime.NewScriptedOwner([]runtime.OwnerPhase{{Duration: 1e9, Util: 0.02, FreeMB: 40}})
		if err != nil {
			l.Close()
			return err
		}
		a := runtime.NewAgent(fmt.Sprintf("agent%d", i), owner, 64)
		a.SetWorkExecutor(b.exec)
		srv := runtime.NewAgentServer(a, l)
		b.servers = append(b.servers, srv)
		addr := srv.Addr().String()
		b.addrs = append(b.addrs, addr)
		c, err := runtime.DialAgentConfig(addr, link.ClientConfig("ready", nil, nil))
		if err != nil {
			return err
		}
		err = c.Ping()
		c.Close()
		if err != nil {
			return fmt.Errorf("agent %s not ready: %w", addr, err)
		}
	}
	return nil
}

func (b *sweepBench) close() {
	for _, s := range b.servers {
		s.Close()
	}
	b.servers, b.addrs = nil, nil
}

// exec is the agents' work executor: the built-in task registry, timed.
func (b *sweepBench) exec(spec exp.PointSpec) ([]byte, error) {
	l := b.log.Load()
	h := l.tr.begin("fabric.task", l.parent, int64(spec.Index))
	t0 := time.Now()
	out, err := b.tasks.Run(spec)
	d := time.Since(t0)
	l.tr.end(h)
	l.mu.Lock()
	l.ms = append(l.ms, ms(d))
	l.taskS += d.Seconds()
	l.mu.Unlock()
	return out, err
}

func (b *sweepBench) run(p *pass) error {
	link := fabric.DefaultLinkConfig()
	link.MaxInFlight = 1
	cfg := fabric.Config{Agents: b.addrs, Link: link, Rec: p.rec}
	var slotS, taskS float64
	var completed, dispatched, requeued int
	for rep := 0; p.more(rep); rep++ {
		root := p.tr.begin("fabric.Run", noSpan, int64(rep))
		log := &execLog{tr: p.tr, parent: root, ms: make([]float64, 0, len(b.points))}
		b.log.Store(log)
		t0 := time.Now()
		results, st, err := fabric.Run(cfg, sweepName, b.points)
		wall := time.Since(t0).Seconds()
		p.tr.end(root)
		p.attempt += len(b.points)
		if err != nil {
			p.failed += len(b.points)
			return fmt.Errorf("fabric run: %w", err)
		}
		p.failed += len(b.points) - st.Completed
		if st.Completed != len(b.points) {
			p.failf("sweep-fabric: %d of %d points completed", st.Completed, len(b.points))
		}
		p.walls = append(p.walls, wall)
		p.items = append(p.items, log.ms...)
		slotS += wall * sweepAgents
		taskS += log.taskS
		completed, dispatched, requeued = completed+st.Completed, dispatched+st.Dispatched, requeued+st.Requeued
		b.checkResults(p, results)
		if err := p.sampleSetups(); err != nil {
			return err
		}
	}
	if p.tr == nil {
		return nil
	}
	simSeconds, preempt, err := b.recompute(p)
	if err != nil {
		return err
	}
	reps, points := float64(len(p.walls)), float64(len(b.points))
	serveS := p.tr.selfByName()["node.ServeForeign"]
	p.layer["scenario.expand_ms"] = median(b.expand)
	p.layer["fabric.task_s"] = taskS / reps
	p.layer["fabric.dispatch_us"] = (slotS - taskS) / reps / points * 1e6
	p.layer["fabric.slot_idle_share"] = 1 - taskS/slotS
	p.layer["fabric.useful_ratio"] = float64(completed) / float64(dispatched)
	p.layer["fabric.requeued"] = float64(requeued) / reps
	p.layer["node.serve_s"] = serveS
	p.layer["node.ns_per_sim_s"] = serveS * 1e9 / simSeconds
	p.layer["node.preemptions"] = float64(preempt)
	// Each preemption ends one run burst and one idle burst, two variates.
	p.layer["stats.sample_share"] = 2 * float64(preempt) * p.layer["stats.sample_ns"] / (serveS * 1e9)
	p.notef("sweep-fabric: %d points per sweep, %d traced sweeps", len(b.points), len(p.walls))
	return nil
}

// checkResults compares a run's results with the run before it and, on
// the first run, samples every 50th point (and the last) against a local
// scenario.Task.
func (b *sweepBench) checkResults(p *pass, results [][]byte) {
	if b.results != nil {
		for i := range results {
			if !bytes.Equal(results[i], b.results[i]) {
				p.failf("sweep-fabric: point %d differs between repetitions", i)
				return
			}
		}
		return
	}
	b.results = results
	for i := 0; i < len(b.points); i++ {
		if i%50 != 0 && i != len(b.points)-1 {
			continue
		}
		want, err := scenario.Task(b.points[i])
		if err != nil || !bytes.Equal(results[i], want) {
			p.failf("sweep-fabric: point %d differs from a local scenario.Task (err %v)", i, err)
			return
		}
	}
}

// recompute runs every point of the sweep locally, exactly as
// scenario.Task does, with a span around node.ServeForeign, checks each
// against the fabric's bytes, and returns the simulated seconds and
// preemptions of the sweep.
func (b *sweepBench) recompute(p *pass) (simSeconds float64, preempt int64, err error) {
	root := p.tr.begin("local", noSpan, -1)
	defer p.tr.end(root)
	table := workload.DefaultTable()
	for i, spec := range b.points {
		var pp scenario.PointParams
		if err := json.Unmarshal(spec.Params, &pp); err != nil {
			return 0, 0, err
		}
		c := pp.Node
		if c == nil {
			return 0, 0, fmt.Errorf("point %d is not a node point", i)
		}
		pt := p.tr.begin("node.point", root, int64(i))
		n := node.New(node.Config{ContextSwitch: c.ContextSwitch, BurstLookahead: 64, Rec: p.rec},
			table, workload.ConstantUtilization(c.Utilization), stats.NewRNG(spec.Seed))
		h := p.tr.begin("node.ServeForeign", pt, int64(i))
		n.ServeForeign(math.Inf(1), c.Duration)
		p.tr.end(h)
		out, err := json.Marshal(scenario.NodePoint{
			ContextSwitch: c.ContextSwitch,
			Utilization:   c.Utilization,
			LDR:           n.LDR(),
			FCSR:          n.FCSR(),
		})
		p.tr.end(pt)
		if err != nil {
			return 0, 0, err
		}
		if !bytes.Equal(out, b.results[i]) {
			p.failf("sweep-fabric: point %d differs from its local decomposition", i)
			break
		}
		simSeconds += c.Duration
		preempt += n.Preemptions()
	}
	return simSeconds, preempt, nil
}
