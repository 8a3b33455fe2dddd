package cluster

import (
	"fmt"
	"math"

	"lingerlonger/internal/core"
	"lingerlonger/internal/exp"
	"lingerlonger/internal/node"
	"lingerlonger/internal/obs"
	"lingerlonger/internal/predict"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/trace"
	"lingerlonger/internal/workload"
)

// Config parameterizes a cluster simulation. Start from DefaultConfig.
type Config struct {
	Nodes  int         // cluster size (the paper: 64)
	Policy core.Policy // scheduling discipline

	NumJobs float64 // number of foreign jobs submitted at t=0
	JobCPU  float64 // CPU seconds each job needs
	JobMB   float64 // process image size, megabytes (the paper: 8)

	// JobSizes, when non-nil, draws each job's CPU demand from a
	// distribution instead of the fixed JobCPU — the scenario layer's
	// heavy-tailed workload families plug in here. Draws come from a
	// dedicated RNG stream seeded off Seed, so a nil JobSizes leaves every
	// legacy random stream — and therefore every figure — byte-identical.
	// Non-positive draws fall back to JobCPU.
	JobSizes stats.Distribution

	Migration     core.MigrationCost
	PauseTime     float64 // PM fixed suspend interval, seconds
	ContextSwitch float64 // effective context-switch time, seconds

	MemoryCheck bool // require free memory >= JobMB at placement

	// LingerMultiplier scales the LL cost-model linger duration; 0 means
	// the model value (1.0). It is the ablation knob for the linger
	// deadline: small values approach immediate eviction with priority,
	// large values approach Linger-Forever.
	LingerMultiplier float64

	// Predictor estimates the remaining length of a non-idle episode for
	// the LL migration decision; nil selects the paper's 2x-age rule
	// (predict.MedianLife). The LL rule is: migrate once the predicted
	// remainder reaches ((1-l)/(h-l))*Tmigr.
	Predictor predict.Predictor

	// Placement selects how queued jobs choose among eligible nodes.
	Placement Placement

	MaxTime float64 // simulation horizon safety, seconds
	Seed    int64

	// Exec supplies the sweep execution policy (pool size, retries,
	// watchdog, checkpointing) for the batch drivers (Fig7) that run
	// several independent simulations; nil selects a plain GOMAXPROCS
	// pool. A single simulation is always sequential — Exec only fans out
	// across policies and run kinds, so it never changes results.
	Exec *exp.Runner

	// Rec, when non-nil, receives per-policy scheduling counters
	// (cluster.migrations, cluster.evictions, cluster.lingers,
	// cluster.placements, cluster.completions — all labeled {policy=...})
	// and, when a trace sink is attached, one event per scheduling
	// decision. Metrics and events are outputs only: no simulation
	// decision reads them, so enabling the recorder never changes results.
	Rec *obs.Recorder
}

// Placement is the strategy for choosing a destination among eligible
// nodes.
type Placement int

const (
	// PlaceLowestUtil picks the eligible node with the lowest current CPU
	// utilization (the default, and what the paper implies).
	PlaceLowestUtil Placement = iota
	// PlaceRandom picks uniformly among eligible nodes.
	PlaceRandom
	// PlaceFirstFit picks the lowest-numbered eligible node.
	PlaceFirstFit
)

// String returns the placement name.
func (p Placement) String() string {
	switch p {
	case PlaceLowestUtil:
		return "lowest-util"
	case PlaceRandom:
		return "random"
	case PlaceFirstFit:
		return "first-fit"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// DefaultConfig returns the paper's Workload-1 setting on a 64-node
// cluster: 128 jobs of 600 CPU-seconds, 8 MB images, the 3 Mbps effective
// migration path and a 100 µs context switch. The PM pause interval,
// unspecified in the paper, defaults to 30 seconds.
func DefaultConfig() Config {
	return Config{
		Nodes:         64,
		Policy:        core.LingerLonger,
		NumJobs:       128,
		JobCPU:        600,
		JobMB:         8,
		Migration:     core.DefaultMigrationCost(),
		PauseTime:     30,
		ContextSwitch: node.DefaultContextSwitch,
		MemoryCheck:   true,
		MaxTime:       200000,
		Seed:          1,
	}
}

// Workload1 returns the paper's heavy workload: 128 jobs x 600 CPU-s
// (about two jobs per node).
func Workload1(policy core.Policy) Config {
	cfg := DefaultConfig()
	cfg.Policy = policy
	return cfg
}

// Workload2 returns the paper's light workload: 16 jobs x 1800 CPU-s
// (a quarter of the nodes needed).
func Workload2(policy core.Policy) Config {
	cfg := DefaultConfig()
	cfg.Policy = policy
	cfg.NumJobs = 16
	cfg.JobCPU = 1800
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: Nodes must be positive, got %d", c.Nodes)
	}
	if c.NumJobs < 0 || c.NumJobs != math.Trunc(c.NumJobs) {
		return fmt.Errorf("cluster: NumJobs must be a non-negative integer, got %g", c.NumJobs)
	}
	if c.JobCPU <= 0 {
		return fmt.Errorf("cluster: JobCPU must be positive, got %g", c.JobCPU)
	}
	if c.JobMB < 0 {
		return fmt.Errorf("cluster: JobMB must be non-negative, got %g", c.JobMB)
	}
	if c.PauseTime < 0 {
		return fmt.Errorf("cluster: PauseTime must be non-negative, got %g", c.PauseTime)
	}
	if c.ContextSwitch < 0 {
		return fmt.Errorf("cluster: ContextSwitch must be non-negative, got %g", c.ContextSwitch)
	}
	if c.LingerMultiplier < 0 {
		return fmt.Errorf("cluster: LingerMultiplier must be non-negative, got %g", c.LingerMultiplier)
	}
	if c.MaxTime <= 0 {
		return fmt.Errorf("cluster: MaxTime must be positive, got %g", c.MaxTime)
	}
	return nil
}

// simNode is one workstation of the simulated cluster.
type simNode struct {
	id   int
	view *trace.View
	fine *node.Node

	job      *Job // occupying job, if any
	reserved *Job // job migrating toward this node, if any

	inEpisode      bool // inside a non-idle episode with a foreign job attached
	episodeStart   float64
	episodeUtilSum float64
	episodeWindows int
}

// idleAt reports the recruitment-threshold idle state at time t. The
// window-boundary fast paths read the winIdle snapshot instead; this is
// the mid-window form (migration arrivals attach off the boundary grid).
func (n *simNode) idleAt(t float64) bool { return n.view.IdleAt(t) }

// episodeUtil returns the average local utilization observed over the
// current non-idle episode (the cost model's h).
func (n *simNode) episodeUtil() float64 {
	if n.episodeWindows == 0 {
		return 0
	}
	return n.episodeUtilSum / float64(n.episodeWindows)
}

type simulation struct {
	cfg       Config
	predictor predict.Predictor
	rng       *stats.RNG

	// nodes is stored by value: the placement and advance loops touch every
	// node every window, and one contiguous slab beats a pointer chase per
	// node. The slice never grows after construction, so *simNode handles
	// (Job.node, findDest results) stay valid for the simulation's life.
	nodes     []simNode
	queue     []*Job
	jobs      []*Job
	migrating []*Job

	// Struct-of-arrays snapshot of every node's coarse-grain trace state at
	// the current window boundary, refreshed once per stepOnce. Every
	// placement and policy query inside a boundary happens at exactly s.now
	// against read-only trace data, so the cache cannot go stale within a
	// window; findDest then scans flat float64/bool slices instead of doing
	// three view lookups per candidate per call. winFree is only filled when
	// cfg.MemoryCheck is set.
	winUtil []float64
	winIdle []bool
	winFree []float64

	// findDest candidate scratch, reused across calls to keep the per-call
	// allocation count at zero.
	candIdle  []int32
	candOther []int32

	// sizeRNG is the dedicated stream for Config.JobSizes draws; nil when
	// job sizes are fixed. fsDelay accumulates the FractionalShare owner
	// slowdown (seconds of local CPU ceded to sharing), the analytic
	// counterpart of the fine model's context-switch charges.
	sizeRNG *stats.RNG
	fsDelay float64

	now         float64
	replace     bool // throughput mode: completed jobs respawn
	nextJobID   int
	foreignCPU  float64
	localDemand float64 // total local CPU demand across all nodes, seconds
	migrations  int
	evictions   int
	completed   int

	// Observability (nil handles when cfg.Rec is nil — every call below
	// is then a single-branch no-op).
	rec     *obs.Recorder
	cMigr   *obs.Counter
	cEvict  *obs.Counter
	cLinger *obs.Counter
	cPlace  *obs.Counter
	cComp   *obs.Counter
}

// emit writes one scheduling-decision trace event when a sink is attached.
func (s *simulation) emit(kind string, nd *simNode, j *Job) {
	if !s.rec.Tracing() {
		return
	}
	ev := obs.Event{Time: s.now, Kind: kind, Policy: s.cfg.Policy.String(), Job: j.ID}
	if nd != nil {
		ev.Node = nd.id
	}
	s.rec.Emit(ev)
}

const step = trace.SampleInterval

// newSimulation builds the cluster: each node replays a randomly chosen
// trace at a random offset (the paper's Figure 6 procedure) and carries a
// fine-grain strict-priority node model.
func newSimulation(cfg Config, corpus []*trace.Trace) (*simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(corpus) == 0 {
		return nil, fmt.Errorf("cluster: empty trace corpus")
	}
	rng := stats.NewRNG(cfg.Seed)
	table := workload.DefaultTable()
	predictor := cfg.Predictor
	if predictor == nil {
		predictor = predict.MedianLife{}
	}
	policy := cfg.Policy.String()
	s := &simulation{
		cfg:       cfg,
		predictor: predictor,
		nodes:     make([]simNode, cfg.Nodes),
		winUtil:   make([]float64, cfg.Nodes),
		winIdle:   make([]bool, cfg.Nodes),
		winFree:   make([]float64, cfg.Nodes),
		rec:       cfg.Rec,
		cMigr:     cfg.Rec.Counter(obs.Labeled(obs.ClusterMigrations, "policy", policy)),
		cEvict:    cfg.Rec.Counter(obs.Labeled(obs.ClusterEvictions, "policy", policy)),
		cLinger:   cfg.Rec.Counter(obs.Labeled(obs.ClusterLingers, "policy", policy)),
		cPlace:    cfg.Rec.Counter(obs.Labeled(obs.ClusterPlacements, "policy", policy)),
		cComp:     cfg.Rec.Counter(obs.Labeled(obs.ClusterCompletions, "policy", policy)),
	}
	views := make([]*trace.View, cfg.Nodes)
	nodeRNGs := make([]*stats.RNG, cfg.Nodes)
	for i := range views {
		tr := corpus[rng.Intn(len(corpus))]
		offset := rng.Float64() * tr.Duration()
		views[i] = trace.NewView(tr, offset)
		nodeRNGs[i] = rng.Split()
	}
	// Synthesize the trace blocks the nodes start in, in parallel, before
	// the node models read them; later blocks fill as the run reaches them.
	trace.Prefill(views, cfg.Rec)
	for i, view := range views {
		s.nodes[i] = simNode{
			id:   i,
			view: view,
			fine: node.New(node.Config{ContextSwitch: cfg.ContextSwitch, Rec: cfg.Rec}, table, view, nodeRNGs[i]),
		}
	}
	s.rng = rng.Split()
	if cfg.JobSizes != nil {
		// An independent seed space (xor-salted, like the arrivals stream)
		// so enabling distributional job sizes perturbs nothing else.
		s.sizeRNG = stats.NewRNG(cfg.Seed ^ 0x70b5a12e)
	}
	for i := 0; i < int(cfg.NumJobs); i++ {
		s.spawnJob(0)
	}
	return s, nil
}

// jobDemand returns the CPU demand of the next spawned job: the fixed
// JobCPU, or a draw from Config.JobSizes when a distribution is set.
func (s *simulation) jobDemand() float64 {
	if s.sizeRNG == nil {
		return s.cfg.JobCPU
	}
	d := s.cfg.JobSizes.Sample(s.sizeRNG)
	if !(d > 0) || math.IsInf(d, 1) {
		return s.cfg.JobCPU
	}
	return d
}

// spawnJob submits a new job to the queue at instant at.
func (s *simulation) spawnJob(at float64) {
	j := newJob(s.nextJobID, s.jobDemand(), s.cfg.JobMB, at)
	s.nextJobID++
	s.jobs = append(s.jobs, j)
	s.queue = append(s.queue, j)
}

// refreshWindow recomputes the struct-of-arrays snapshot at the current
// window boundary. Called once at the top of stepOnce, before any query.
func (s *simulation) refreshWindow() {
	check := s.cfg.MemoryCheck
	for i := range s.nodes {
		cpu, free, idle := s.nodes[i].view.Window(s.now)
		s.winUtil[i], s.winIdle[i] = cpu, idle
		if check {
			s.winFree[i] = free
		}
	}
}

// findDest returns the best destination for job j among eligible nodes:
// idle free nodes first, or — when allowNonIdle (the linger policies'
// placement rule) — non-idle free nodes as a fallback. Within each class
// the Placement strategy picks the node. exclude is skipped.
//
// Occupancy (job/reserved) is read live — placements earlier in the same
// boundary must be visible — while the trace-derived state comes from the
// per-window snapshot. Candidates are collected in ascending node order,
// exactly the old pointer-scan order, so PlaceRandom draws and every
// tie-break are unchanged.
func (s *simulation) findDest(j *Job, allowNonIdle bool, exclude *simNode) *simNode {
	idle := s.candIdle[:0]
	nonIdle := s.candOther[:0]
	ex := -1
	if exclude != nil {
		ex = exclude.id
	}
	check := s.cfg.MemoryCheck
	for i := range s.nodes {
		nd := &s.nodes[i]
		if i == ex || nd.job != nil || nd.reserved != nil {
			continue
		}
		if check && s.winFree[i] < j.SizeMB {
			continue
		}
		if s.winIdle[i] {
			idle = append(idle, int32(i))
		} else if allowNonIdle {
			nonIdle = append(nonIdle, int32(i))
		}
	}
	s.candIdle, s.candOther = idle, nonIdle // retain grown capacity
	if len(idle) > 0 {
		return s.pick(idle)
	}
	if len(nonIdle) > 0 {
		return s.pick(nonIdle)
	}
	return nil
}

// pick applies the placement strategy to a non-empty candidate list of
// node indices (ascending).
func (s *simulation) pick(candidates []int32) *simNode {
	switch s.cfg.Placement {
	case PlaceRandom:
		return &s.nodes[candidates[s.rng.Intn(len(candidates))]]
	case PlaceFirstFit:
		// Candidates arrive in ascending id order, so the first is the fit.
		return &s.nodes[candidates[0]]
	default: // PlaceLowestUtil
		best := candidates[0]
		bestU := s.winUtil[best]
		for _, c := range candidates[1:] {
			if u := s.winUtil[c]; u < bestU {
				best, bestU = c, u
			}
		}
		return &s.nodes[best]
	}
}

// attach places job j on node nd at time at with scheduling state derived
// from the node's idle state.
func (s *simulation) attach(j *Job, nd *simNode, at float64) {
	nd.job = j
	nd.reserved = nil
	j.node = nd
	if nd.idleAt(at) {
		j.setState(Running, at)
		nd.inEpisode = false
	} else {
		j.setState(Lingering, at)
		nd.inEpisode = true
		nd.episodeStart = at
		nd.episodeUtilSum = nd.view.UtilizationAt(at)
		nd.episodeWindows = 1
	}
}

// detach removes job j from its node.
func (s *simulation) detach(j *Job) {
	nd := j.node
	nd.job = nil
	nd.inEpisode = false
	j.node = nil
}

// startMigration moves j from its node toward dest.
func (s *simulation) startMigration(j *Job, dest *simNode) {
	s.detach(j)
	dest.reserved = j
	j.setState(Migrating, s.now)
	j.migrationEnd = s.now + s.cfg.Migration.Time(j.SizeMB)
	s.migrating = append(s.migrating, j)
	s.migrations++
	s.cMigr.Inc()
	s.emit("migrate", dest, j)
}

// boundaryActions steps every hosted job through the core policy step at
// the current window boundary.
func (s *simulation) boundaryActions() {
	for i := range s.nodes {
		nd := &s.nodes[i]
		j := nd.job
		idle := s.winIdle[i]
		if j == nil || j.state == Running && idle {
			continue
		}
		if j.state == Running {
			// The owner came back: a non-idle episode begins.
			nd.inEpisode = true
			nd.episodeStart = s.now
			nd.episodeUtilSum = 0
			nd.episodeWindows = 0
		}
		if !idle && j.state != Paused {
			nd.episodeUtilSum += s.winUtil[i]
			nd.episodeWindows++
		}
		s.step(j, nd, idle)
	}
}

// phaseOf maps the hosted job states onto the policy step's phases.
var phaseOf = [numStates]core.Phase{Lingering: core.PhaseLingering, Paused: core.PhasePaused}

// step runs core.Step for j on nd and carries out its action. The
// destination search and the predictor run only when the step reads them:
// under PlaceRandom every search draws from s.rng, so where searches
// happen is part of the simulation's output.
func (s *simulation) step(j *Job, nd *simNode, idle bool) {
	sit := core.Situation{
		Policy:           s.cfg.Policy,
		Phase:            phaseOf[j.state],
		OwnerIdle:        idle,
		PauseExpired:     s.now >= j.pauseEnd,
		LingerMultiplier: s.cfg.LingerMultiplier,
	}
	var dest *simNode
	if sit.NeedsDest() {
		dest = s.findDest(j, false, nd) // migration targets idle nodes only
		if dest != nil {
			sit.HasDest = true
			sit.H = nd.episodeUtil()
			sit.L = s.winUtil[dest.id]
			sit.Remaining = s.predictor.PredictRemaining(s.now - nd.episodeStart)
			sit.Tmigr = s.cfg.Migration.Time(j.SizeMB)
		}
	}
	switch core.Step(sit) {
	case core.Linger:
		j.setState(Lingering, s.now)
		s.cLinger.Inc()
		s.emit("linger", nd, j)
		s.step(j, nd, idle)
	case core.Pause:
		j.setState(Paused, s.now)
		j.pauseEnd = s.now + s.cfg.PauseTime
	case core.Resume:
		if j.state == Lingering {
			// Completed episode lengths train learning predictors.
			s.predictor.Record(s.now - nd.episodeStart)
		}
		nd.inEpisode = false
		j.setState(Running, s.now)
	case core.Migrate:
		s.startMigration(j, dest)
	case core.Evict:
		s.evictions++
		s.cEvict.Inc()
		s.emit("evict", nd, j)
		s.detach(j)
		j.setState(Queued, s.now)
		s.queue = append(s.queue, j)
	}
}

// placeQueued assigns queued jobs to free nodes. The linger policies may
// place on non-idle nodes when no idle node is free ("run jobs on any
// semi-available node").
func (s *simulation) placeQueued() {
	if len(s.queue) == 0 {
		return
	}
	allowNonIdle := s.cfg.Policy.Lingers()
	remaining := s.queue[:0]
	for _, j := range s.queue {
		if dest := s.findDest(j, allowNonIdle, nil); dest != nil {
			s.attach(j, dest, s.now)
			s.cPlace.Inc()
			s.emit("place", dest, j)
		} else {
			remaining = append(remaining, j)
		}
	}
	s.queue = remaining
}

// arriveMigrations attaches jobs whose migration completes within the
// current window and serves them for the window remainder.
func (s *simulation) arriveMigrations(windowEnd float64) {
	remaining := s.migrating[:0]
	for _, j := range s.migrating {
		if j.migrationEnd > windowEnd {
			remaining = append(remaining, j)
			continue
		}
		dest := s.findReservation(j)
		s.attach(j, dest, j.migrationEnd)
		s.serveJob(j, windowEnd)
	}
	s.migrating = remaining
}

func (s *simulation) findReservation(j *Job) *simNode {
	for i := range s.nodes {
		if s.nodes[i].reserved == j {
			return &s.nodes[i]
		}
	}
	panic(fmt.Sprintf("cluster: migrating job %d has no reservation", j.ID))
}

// serveJob runs j's node until windowEnd, handling completion.
func (s *simulation) serveJob(j *Job, windowEnd float64) {
	if s.cfg.Policy == core.FractionalShare {
		s.serveJobFractional(j, windowEnd)
		return
	}
	nd := j.node
	start := j.stateSince
	if nd.fine.Now() < start {
		nd.fine.Advance(start)
	}
	if nd.fine.Now() >= windowEnd {
		return
	}
	delivered := nd.fine.ServeForeign(j.remaining, windowEnd)
	j.remaining -= delivered
	s.foreignCPU += delivered
	if j.remaining <= 1e-9 {
		s.completeJob(j, nd, nd.fine.Now())
	}
}

// serveJobFractional serves j under the FractionalShare discipline. The
// foreign job is not run through the strict-priority fine-grain node;
// instead it splits the CPU with the owner processor-sharing style: with
// local utilization u over the window, the foreign rate is 1-u while the
// owner is done sharing and 1/2 while both compete, i.e. max(1-u, 1/2).
// The owner slowdown is the CPU ceded to the foreign job while the owner
// had demand — min(u, 1/2) per shared second — accumulated into fsDelay
// and reported through the same localDelay metric as the context-switch
// charges of the priority policies.
func (s *simulation) serveJobFractional(j *Job, windowEnd float64) {
	nd := j.node
	from := j.stateSince
	if from < s.now {
		from = s.now
	}
	if from >= windowEnd {
		return
	}
	u := s.winUtil[nd.id]
	if u > 1 {
		u = 1
	}
	rate := 1 - u
	if rate < 0.5 {
		rate = 0.5
	}
	span := windowEnd - from
	if need := j.remaining / rate; need < span {
		span = need
	}
	delivered := rate * span
	if delivered > j.remaining {
		delivered = j.remaining
	}
	j.remaining -= delivered
	s.foreignCPU += delivered
	contention := u
	if contention > 0.5 {
		contention = 0.5
	}
	s.fsDelay += contention * span
	if j.remaining <= 1e-9 {
		s.completeJob(j, nd, from+span)
	}
}

// completeJob retires j at instant done and, in throughput mode, spawns
// its replacement.
func (s *simulation) completeJob(j *Job, nd *simNode, done float64) {
	s.detach(j)
	j.setState(Done, done)
	j.completedAt = done
	s.completed++
	s.cComp.Inc()
	s.emit("complete", nd, j)
	if s.replace {
		s.spawnJob(done)
	}
}

// serveWindow services every attached job for [now, windowEnd).
func (s *simulation) serveWindow(windowEnd float64) {
	for i := range s.nodes {
		j := s.nodes[i].job
		if j == nil {
			continue
		}
		switch j.state {
		case Running, Lingering:
			s.serveJob(j, windowEnd)
		}
	}
}

// stepOnce advances the simulation by one trace window.
func (s *simulation) stepOnce() {
	windowEnd := s.now + step
	s.refreshWindow()
	for i := range s.nodes {
		s.localDemand += s.winUtil[i] * step
	}
	s.boundaryActions()
	s.placeQueued()
	s.serveWindow(windowEnd)
	s.arriveMigrations(windowEnd)
	s.now = windowEnd
}

// batchDone reports whether every job has completed.
func (s *simulation) batchDone() bool {
	return s.completed >= len(s.jobs)
}

// localDelay aggregates the owner slowdown across the whole cluster: total
// context-switch delay charged to local bursts over total local CPU demand
// on every node — the paper's "average increase in completion time of a
// CPU request for local processes", which averages over nodes without a
// lingering foreign job as well.
func (s *simulation) localDelay() float64 {
	if s.localDemand == 0 {
		return 0
	}
	delay := s.fsDelay
	for i := range s.nodes {
		delay += s.nodes[i].fine.LocalDelay()
	}
	return delay / s.localDemand
}
