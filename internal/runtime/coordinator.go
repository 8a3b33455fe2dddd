package runtime

import (
	"fmt"
	"sort"

	"lingerlonger/internal/core"
	"lingerlonger/internal/obs"
)

// AgentClient is the coordinator's handle to one workstation agent. The
// in-process implementations wrap *Agent directly (LocalClient perfect,
// FaultClient through a simulated lossy network); the TCP implementation
// speaks the gob protocol of transport.go. All calls are synchronous, so
// the coordinator's step loop is deterministic over any transport.
//
// Implementations honor a per-RPC deadline and return errors wrapping the
// typed transport errors of fault.go (ErrAgentTimeout, ErrAgentDown,
// ErrCorruptFrame) for failures where the call outcome is unknown; the
// coordinator treats exactly those (IsTransient) as survivable.
type AgentClient interface {
	Name() string
	Tick(dt float64) (AgentStatus, error)
	Assign(j *Job) error
	Revoke(jobID int) (*Job, error)
	Pause(jobID int, paused bool) error
	Ack(ids []int) error
	Close() error
}

// LocalClient adapts an in-process *Agent to the AgentClient interface
// over a perfect network: calls execute exactly once and never fail for
// transport reasons.
type LocalClient struct{ Agent *Agent }

// Name returns the agent name.
func (c LocalClient) Name() string { return c.Agent.Name() }

// Tick advances the agent.
func (c LocalClient) Tick(dt float64) (AgentStatus, error) { return c.Agent.Tick(dt) }

// Assign places a job.
func (c LocalClient) Assign(j *Job) error { return c.Agent.Assign(j) }

// Revoke removes a job.
func (c LocalClient) Revoke(jobID int) (*Job, error) { return c.Agent.Revoke(jobID) }

// Pause suspends or resumes a job.
func (c LocalClient) Pause(jobID int, paused bool) error { return c.Agent.Pause(jobID, paused) }

// Ack clears the agent's completion/revocation staging.
func (c LocalClient) Ack(ids []int) error { return c.Agent.Ack(ids) }

// Close is a no-op for in-process agents.
func (c LocalClient) Close() error { return nil }

// CoordinatorConfig parameterizes the scheduling daemon.
type CoordinatorConfig struct {
	Policy    core.Policy // LL, LF, IE or PM; agents model no fractional share
	PauseTime float64     // PM suspend interval, seconds

	// Health sets the suspect/dead thresholds of the failure detector. The
	// zero value selects core.DefaultHealthPolicy.
	Health core.HealthPolicy

	// Rec, when non-nil, receives the coordinator's failure-handling
	// counters (runtime.agents.suspected, runtime.agents.dead,
	// runtime.jobs.recovered, runtime.duplicates.reaped) and, with a
	// trace sink attached, one event per health transition, recovery,
	// migration and eviction. Outputs only — no scheduling decision reads
	// them.
	Rec *obs.Recorder
}

// DefaultCoordinatorConfig returns LL with the default failure detector.
// Migrations always cost the paper's core.DefaultMigrationCost.
func DefaultCoordinatorConfig() CoordinatorConfig {
	return CoordinatorConfig{
		Policy:    core.LingerLonger,
		PauseTime: 30,
		Health:    core.DefaultHealthPolicy(),
	}
}

// CompletedJob records one finished job.
type CompletedJob struct {
	Job         Job
	CompletedAt float64 // virtual time
	Agent       string  // agent that finished it
}

// RecoveryCounters tallies the coordinator's failure-handling events.
type RecoveryCounters struct {
	MissedTicks      int `json:"missedTicks"`      // ticks that failed after all retries
	Suspected        int `json:"suspected"`        // healthy -> suspect transitions
	Died             int `json:"died"`             // -> dead transitions
	Resurrected      int `json:"resurrected"`      // dead -> healthy transitions
	RecoveredJobs    int `json:"recoveredJobs"`    // jobs restored from checkpoint or staging
	RequeuedAssigns  int `json:"requeuedAssigns"`  // ambiguous assigns that turned out not to land
	AmbiguousAssigns int `json:"ambiguousAssigns"` // assigns whose reply was lost
	AmbiguousRevokes int `json:"ambiguousRevokes"` // revokes whose reply was lost
	StaleRevokes     int `json:"staleRevokes"`     // duplicate copies revoked after resurrection
	VanishedJobs     int `json:"vanishedJobs"`     // jobs gone without trace, restored from checkpoint
}

// Coordinator owns the job queue and drives the agents. It is not safe
// for concurrent use; Step is the single entry point.
//
// Failure handling: a tick that fails with a transient transport error
// counts against the agent's health tracker; at SuspectAfter consecutive
// misses the agent stops receiving work, at DeadAfter its jobs are
// restored from the last checkpointed status and rescheduled (charged
// core.RecoveryCost). Calls with ambiguous outcomes (a lost Assign or
// Revoke reply) park the job in a limbo slot that the next successful
// status report resolves, so no job is ever double-assigned or lost.
type Coordinator struct {
	cfg CoordinatorConfig

	agents []AgentClient
	names  []string // agent names, sorted: the deterministic scan order
	status map[string]AgentStatus
	health map[string]*core.HealthTracker
	hosted map[string]int      // agent name -> hosted job ID
	phases map[int]hostedPhase // job ID -> policy phase; absent = core.PhaseRunning

	// Ambiguous-call limbo, one slot per agent: an Assign or Revoke whose
	// reply was lost leaves the job's location unknown until the agent
	// answers a tick again (or is declared dead).
	limboAssign map[string]*Job
	limboRevoke map[string]int

	queue     []*Job
	migrating []*transfer
	sizes     map[int]float64 // job ID -> image size, recorded at submission
	demands   map[int]float64 // job ID -> CPU demand, recorded at submission
	submitted map[int]float64 // job ID -> submission time
	progress  map[int]float64 // job ID -> last checkpointed progress
	nextID    int
	now       float64

	completed    []CompletedJob
	completedIDs map[int]bool
	migrations   int
	counters     RecoveryCounters

	// Observability handles (nil when cfg.Rec is nil; every use is then a
	// single-branch no-op).
	cSuspect *obs.Counter
	cDead    *obs.Counter
	cRecover *obs.Counter
	cReaped  *obs.Counter
}

// emit writes one runtime trace event when a sink is attached. Time is
// the coordinator's virtual clock.
func (c *Coordinator) emit(kind, agent string, jobID int) {
	if !c.cfg.Rec.Tracing() {
		return
	}
	c.cfg.Rec.Emit(obs.Event{Time: c.now, Kind: kind, Agent: agent, Job: jobID})
}

// hostedPhase is where a hosted job stands in its owner's cycle, with the
// instant a PM pause began.
type hostedPhase struct {
	phase    core.Phase
	pausedAt float64
}

// transfer is a job in flight between agents. An empty dest marks a
// recovery transfer: the job lands back in the queue once the checkpoint
// restore cost has been paid.
type transfer struct {
	job     *Job
	dest    string
	arrival float64
}

// NewCoordinator returns a coordinator over the given agents.
func NewCoordinator(cfg CoordinatorConfig, agents []AgentClient) (*Coordinator, error) {
	if len(agents) == 0 {
		return nil, fmt.Errorf("runtime: no agents")
	}
	if cfg.Policy == core.FractionalShare {
		return nil, fmt.Errorf("runtime: agents have no fractional-share model, so the coordinator cannot run %v", cfg.Policy)
	}
	if cfg.PauseTime < 0 {
		return nil, fmt.Errorf("runtime: negative pause time %g", cfg.PauseTime)
	}
	if cfg.Health == (core.HealthPolicy{}) {
		cfg.Health = core.DefaultHealthPolicy()
	}
	if err := cfg.Health.Validate(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(agents))
	health := map[string]*core.HealthTracker{}
	for _, a := range agents {
		if health[a.Name()] != nil {
			return nil, fmt.Errorf("runtime: duplicate agent name %q", a.Name())
		}
		names = append(names, a.Name())
		health[a.Name()] = core.NewHealthTracker(cfg.Health)
	}
	sort.Strings(names)
	return &Coordinator{
		cfg:          cfg,
		cSuspect:     cfg.Rec.Counter(obs.AgentsSuspected),
		cDead:        cfg.Rec.Counter(obs.AgentsDead),
		cRecover:     cfg.Rec.Counter(obs.JobsRecovered),
		cReaped:      cfg.Rec.Counter(obs.DuplicatesReaped),
		agents:       agents,
		names:        names,
		status:       map[string]AgentStatus{},
		health:       health,
		hosted:       map[string]int{},
		phases:       map[int]hostedPhase{},
		limboAssign:  map[string]*Job{},
		limboRevoke:  map[string]int{},
		sizes:        map[int]float64{},
		demands:      map[int]float64{},
		submitted:    map[int]float64{},
		progress:     map[int]float64{},
		completedIDs: map[int]bool{},
	}, nil
}

// Now returns the coordinator's virtual clock.
func (c *Coordinator) Now() float64 { return c.now }

// Submit enqueues a new foreign job and returns its ID.
func (c *Coordinator) Submit(demandS, sizeMB float64) (int, error) {
	j := &Job{ID: c.nextID, DemandS: demandS, SizeMB: sizeMB, SubmittedAt: c.now}
	if err := j.Validate(); err != nil {
		return 0, err
	}
	c.nextID++
	c.sizes[j.ID] = j.SizeMB
	c.demands[j.ID] = j.DemandS
	c.submitted[j.ID] = j.SubmittedAt
	c.queue = append(c.queue, j)
	return j.ID, nil
}

// Completed returns the finished-job records so far.
func (c *Coordinator) Completed() []CompletedJob { return c.completed }

// Migrations returns the number of policy migrations started.
func (c *Coordinator) Migrations() int { return c.migrations }

// Counters returns the failure-handling counters so far.
func (c *Coordinator) Counters() RecoveryCounters { return c.counters }

// QueueLen returns the number of jobs waiting for a node.
func (c *Coordinator) QueueLen() int { return len(c.queue) }

// AgentHealth returns the failure-detector state for one agent name.
func (c *Coordinator) AgentHealth(name string) core.HealthState {
	if t, ok := c.health[name]; ok {
		return t.State()
	}
	return core.Dead
}

// Step advances the whole system by dt virtual seconds: it ticks every
// agent (tolerating transient failures), applies the scheduling policy,
// lands migrations and recoveries, and places queued jobs.
func (c *Coordinator) Step(dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("runtime: non-positive step %g", dt)
	}
	c.now += dt

	// 1. Tick agents, track health, reconcile statuses.
	if err := c.tickAgents(dt); err != nil {
		return err
	}

	// 2. Land migrations and recoveries that completed their transfer.
	c.landMigrations()

	// 3. Policy decisions for every hosted job. Jobs on suspect or dead
	// agents are left alone: the failure detector decides their fate, not
	// the scheduler.
	for _, name := range c.names {
		jobID, hosted := c.hosted[name]
		if !hosted || !c.healthy(name) {
			continue
		}
		if err := c.step(name, jobID); err != nil {
			return err
		}
	}

	// 4. Place queued jobs.
	c.placeQueued()
	return nil
}

// tickAgents ticks every agent. Dead agents are still probed each step so
// a healed partition is noticed; their stale state is reconciled on the
// first successful report.
func (c *Coordinator) tickAgents(dt float64) error {
	for _, a := range c.agents {
		name := a.Name()
		tracker := c.health[name]
		wasDead := tracker.State() == core.Dead
		st, err := a.Tick(dt)
		if err != nil {
			if !IsTransient(err) {
				return fmt.Errorf("runtime: tick %s: %w", name, err)
			}
			c.counters.MissedTicks++
			prev := tracker.State()
			now := tracker.Observe(false)
			if now != prev {
				switch now {
				case core.Suspect:
					c.counters.Suspected++
					c.cSuspect.Inc()
					c.emit("agent-suspect", name, 0)
				case core.Dead:
					c.counters.Died++
					c.cDead.Inc()
					c.emit("agent-dead", name, 0)
					c.recoverAgent(name)
				}
			}
			continue
		}
		tracker.Observe(true)
		if wasDead {
			c.counters.Resurrected++
		}
		c.processStatus(a, name, st)
	}
	return nil
}

// processStatus reconciles one successful status report: completions,
// limbo resolution, orphaned revocation staging, stale duplicate copies,
// and the hosted/checkpoint bookkeeping.
func (c *Coordinator) processStatus(a AgentClient, name string, st AgentStatus) {
	c.status[name] = st
	var acks []int

	// Completions: deduplicated by ID, so re-reports after a lost reply or
	// a duplicate copy finishing twice can never double-complete a job.
	for _, j := range st.Finished {
		if !c.completedIDs[j.ID] {
			c.completedIDs[j.ID] = true
			c.completed = append(c.completed, CompletedJob{Job: j, CompletedAt: c.now, Agent: name})
			c.dropActive(j.ID)
			delete(c.phases, j.ID)
		}
		acks = append(acks, j.ID)
	}

	// A pending Assign resolves now: either the job landed, or it finished
	// already, or it never arrived and goes back to the queue.
	if j, ok := c.limboAssign[name]; ok {
		delete(c.limboAssign, name)
		switch {
		case st.JobID == j.ID:
			c.host(name, j.ID)
		case c.completedIDs[j.ID]:
			// Landed and finished within the window; handled above.
		default:
			c.queue = append(c.queue, j)
			c.counters.RequeuedAssigns++
		}
	}

	// A pending Revoke resolves now: still hosted (the revoke never
	// executed), staged (recover the surrendered state), or finished.
	if id, ok := c.limboRevoke[name]; ok {
		delete(c.limboRevoke, name)
		if st.JobID == id {
			c.hosted[name] = id
		} else if sj, found := revokedByID(st, id); found {
			c.recoverJob(sj)
			acks = append(acks, id)
		} else if !c.completedIDs[id] {
			c.recoverCheckpoint(id)
			c.counters.VanishedJobs++
		}
	}

	// Orphaned revocation staging: state the agent still holds for jobs
	// the coordinator tracks nowhere (e.g. a revoke that executed just
	// before the agent was declared dead). Adopt it rather than lose it;
	// if the job is active elsewhere, keep the furthest progress.
	for _, sj := range st.Revoked {
		if !c.completedIDs[sj.ID] && !c.locatedAnywhere(sj.ID) {
			c.recoverJob(sj)
		} else {
			c.mergeProgress(sj)
		}
		acks = append(acks, sj.ID)
	}

	// Hosted bookkeeping, stale duplicates, and the vanish guard.
	believed, has := c.hosted[name]
	if has && st.JobID != believed {
		// The agent does not report the job the coordinator believed it
		// hosts: reconcile the believed job before handling the report.
		c.reconcileMissing(name, believed, st)
		delete(c.hosted, name)
		has = false
	}
	switch {
	case st.JobID >= 0 && !st.JobDone:
		id := st.JobID
		switch {
		case has && believed == id:
			c.checkpoint(id, st.JobProgress)
		case c.completedIDs[id] || c.locatedElsewhere(id, name):
			// Duplicate copy surviving a resurrection: revoke and merge.
			if j, err := a.Revoke(id); err == nil {
				c.counters.StaleRevokes++
				c.cReaped.Inc()
				c.emit("duplicate-reaped", name, id)
				c.mergeProgress(*j)
				acks = append(acks, id)
			}
			// On failure the copy stays; the next tick retries.
		default:
			// The agent legitimately hosts a job the coordinator lost
			// track of (resurrection after an early recovery that has
			// since been re-absorbed): adopt it.
			c.hosted[name] = id
			c.checkpoint(id, st.JobProgress)
		}
	}
	if st.JobDone {
		delete(c.hosted, name)
	}

	if len(acks) > 0 {
		// Best effort: a lost Ack only means the staging is re-reported
		// and re-acknowledged next tick.
		a.Ack(sortedInts(acks))
	}
}

// reconcileMissing handles a believed-hosted job that the agent's status
// no longer reports as running: finished (already handled), staged by a
// revoke (recover the surrendered state), or vanished (restore from the
// last checkpoint). The job is never silently dropped.
func (c *Coordinator) reconcileMissing(name string, id int, st AgentStatus) {
	if c.completedIDs[id] || c.locatedElsewhere(id, name) {
		return
	}
	if sj, staged := revokedByID(st, id); staged {
		c.recoverJob(sj)
		return
	}
	c.recoverCheckpoint(id)
	c.counters.VanishedJobs++
}

// checkpoint records the best known progress for a job.
func (c *Coordinator) checkpoint(id int, progress float64) {
	if progress > c.progress[id] {
		c.progress[id] = progress
	}
}

// revokedByID finds a staged revoked job in a status report.
func revokedByID(st AgentStatus, id int) (Job, bool) {
	for _, j := range st.Revoked {
		if j.ID == id {
			return j, true
		}
	}
	return Job{}, false
}

// recoverAgent restores every job the dead agent was responsible for.
func (c *Coordinator) recoverAgent(name string) {
	if id, ok := c.hosted[name]; ok {
		delete(c.hosted, name)
		delete(c.phases, id)
		c.recoverCheckpoint(id)
	}
	if j, ok := c.limboAssign[name]; ok {
		delete(c.limboAssign, name)
		c.recoverJob(*j)
	}
	if id, ok := c.limboRevoke[name]; ok {
		delete(c.limboRevoke, name)
		if !c.completedIDs[id] && !c.locatedAnywhere(id) {
			c.recoverCheckpoint(id)
		}
	}
}

// recoverCheckpoint rebuilds a job from the coordinator's submission
// records and last checkpointed progress, then reschedules it.
func (c *Coordinator) recoverCheckpoint(id int) {
	c.recoverJob(Job{
		ID:          id,
		DemandS:     c.demands[id],
		SizeMB:      c.jobSize(id),
		Progress:    c.progress[id],
		SubmittedAt: c.submitted[id],
	})
}

// recoverJob reschedules a recovered job: it re-enters the queue after the
// checkpoint-restore transfer cost (the paper's Tmigr) has been paid.
func (c *Coordinator) recoverJob(j Job) {
	cp := j
	c.checkpoint(j.ID, j.Progress)
	c.migrating = append(c.migrating, &transfer{
		job:     &cp,
		dest:    "",
		arrival: c.now + core.RecoveryCost(core.DefaultMigrationCost(), j.SizeMB),
	})
	c.counters.RecoveredJobs++
	c.cRecover.Inc()
	c.emit("job-recovered", "", j.ID)
}

// mergeProgress folds a recovered copy's progress into the coordinator's
// copy of the job, wherever it currently is.
func (c *Coordinator) mergeProgress(j Job) {
	c.checkpoint(j.ID, j.Progress)
	for _, q := range c.queue {
		if q.ID == j.ID && j.Progress > q.Progress {
			q.Progress = j.Progress
		}
	}
	for _, tr := range c.migrating {
		if tr.job.ID == j.ID && j.Progress > tr.job.Progress {
			tr.job.Progress = j.Progress
		}
	}
}

// dropActive removes a job from every location the coordinator tracks.
func (c *Coordinator) dropActive(id int) {
	for name, hosted := range c.hosted {
		if hosted == id {
			delete(c.hosted, name)
		}
	}
	for name, j := range c.limboAssign {
		if j.ID == id {
			delete(c.limboAssign, name)
		}
	}
	for name, limbo := range c.limboRevoke {
		if limbo == id {
			delete(c.limboRevoke, name)
		}
	}
	queue := c.queue[:0]
	for _, j := range c.queue {
		if j.ID != id {
			queue = append(queue, j)
		}
	}
	c.queue = queue
	migrating := c.migrating[:0]
	for _, tr := range c.migrating {
		if tr.job.ID != id {
			migrating = append(migrating, tr)
		}
	}
	c.migrating = migrating
}

// locatedAnywhere reports whether the coordinator tracks the job in any
// active location.
func (c *Coordinator) locatedAnywhere(id int) bool {
	return c.locatedElsewhere(id, "")
}

// locatedElsewhere reports whether the job is active anywhere other than
// the named agent.
func (c *Coordinator) locatedElsewhere(id int, except string) bool {
	for name, hosted := range c.hosted {
		if hosted == id && name != except {
			return true
		}
	}
	for name, j := range c.limboAssign {
		if j.ID == id && name != except {
			return true
		}
	}
	for name, limbo := range c.limboRevoke {
		if limbo == id && name != except {
			return true
		}
	}
	for _, j := range c.queue {
		if j.ID == id {
			return true
		}
	}
	for _, tr := range c.migrating {
		if tr.job.ID == id {
			return true
		}
	}
	return false
}

// CheckInvariants verifies the coordinator's job accounting: every
// submitted, uncompleted job is tracked in exactly one location (queue,
// transfer, hosted, or limbo) and no completed job is still active. Tests
// call it after every step of a fault-injection scenario.
func (c *Coordinator) CheckInvariants() error {
	locations := map[int]int{}
	for _, j := range c.queue {
		locations[j.ID]++
	}
	for _, tr := range c.migrating {
		locations[tr.job.ID]++
	}
	for _, id := range c.hosted {
		locations[id]++
	}
	for _, j := range c.limboAssign {
		locations[j.ID]++
	}
	for _, id := range c.limboRevoke {
		locations[id]++
	}
	for id := 0; id < c.nextID; id++ {
		n := locations[id]
		switch {
		case c.completedIDs[id] && n != 0:
			return fmt.Errorf("runtime: completed job %d still tracked in %d locations", id, n)
		case !c.completedIDs[id] && n == 0:
			return fmt.Errorf("runtime: job %d lost (tracked nowhere)", id)
		case !c.completedIDs[id] && n > 1:
			return fmt.Errorf("runtime: job %d double-tracked in %d locations", id, n)
		}
	}
	seen := map[int]bool{}
	for _, done := range c.completed {
		if seen[done.Job.ID] {
			return fmt.Errorf("runtime: job %d completed twice", done.Job.ID)
		}
		seen[done.Job.ID] = true
	}
	return nil
}

func (c *Coordinator) agentByName(name string) AgentClient {
	for _, a := range c.agents {
		if a.Name() == name {
			return a
		}
	}
	return nil
}

// healthy reports whether an agent is eligible for work.
func (c *Coordinator) healthy(name string) bool {
	t, ok := c.health[name]
	return ok && t.State() == core.Healthy
}

// reservedDests returns the destinations already claimed by in-flight
// transfers.
func (c *Coordinator) reservedDests() map[string]bool {
	out := map[string]bool{}
	for _, tr := range c.migrating {
		if tr.dest != "" {
			out[tr.dest] = true
		}
	}
	return out
}

// findDest picks a destination agent: healthy, idle, unoccupied,
// unreserved, with no ambiguous call pending and room for a sizeMB image;
// lowest utilization first. With allowNonIdle the search falls back to
// non-idle agents (linger placement).
func (c *Coordinator) findDest(sizeMB float64, allowNonIdle bool, exclude string) string {
	reserved := c.reservedDests()
	best := ""
	bestU := 0.0
	bestIdle := false
	for _, name := range c.names {
		if name == exclude || reserved[name] || !c.healthy(name) {
			continue
		}
		if _, busy := c.hosted[name]; busy {
			continue
		}
		if _, pending := c.limboAssign[name]; pending {
			continue
		}
		if _, pending := c.limboRevoke[name]; pending {
			continue
		}
		st := c.status[name]
		if st.FreeMB < sizeMB {
			continue
		}
		if !st.Idle && !allowNonIdle {
			continue
		}
		better := best == "" ||
			(st.Idle && !bestIdle) ||
			(st.Idle == bestIdle && st.Util < bestU)
		if better {
			best, bestU, bestIdle = name, st.Util, st.Idle
		}
	}
	return best
}

// assignOutcome classifies one placement attempt.
type assignOutcome int

const (
	assignLanded assignOutcome = iota
	assignAmbiguous
	assignRejected
)

// assignTo places a job on an agent, classifying the outcome. An ambiguous
// outcome (lost reply) parks the job in the agent's limbo slot.
func (c *Coordinator) assignTo(name string, j *Job) assignOutcome {
	err := c.agentByName(name).Assign(j)
	switch {
	case err == nil:
		c.host(name, j.ID)
		return assignLanded
	case IsTransient(err):
		c.limboAssign[name] = j
		c.counters.AmbiguousAssigns++
		return assignAmbiguous
	default:
		return assignRejected
	}
}

// host records a job freshly assigned to an agent. Like the simulator's
// attach, the job starts out lingering when the agent's owner was busy at
// its last report, and running otherwise.
func (c *Coordinator) host(name string, jobID int) {
	c.hosted[name] = jobID
	if c.status[name].Idle {
		delete(c.phases, jobID)
	} else {
		c.phases[jobID] = hostedPhase{phase: core.PhaseLingering}
	}
}

// leave revokes the job from src and moves it on: to dest after the §2
// migration cost, or, when dest is empty, straight back to the queue with
// its progress (an eviction). A lost revoke reply parks the job in revoke
// limbo instead: the next status report from src resolves whether the job
// is still there or its state must be recovered from staging.
func (c *Coordinator) leave(jobID int, src, dest string) error {
	a := c.agentByName(src)
	j, err := a.Revoke(jobID)
	if err != nil {
		if !IsTransient(err) {
			return err
		}
		// The phase stays: if the revoke never executed, the job is still
		// paused or lingering on src when limbo resolves.
		delete(c.hosted, src)
		c.limboRevoke[src] = jobID
		c.counters.AmbiguousRevokes++
		return nil
	}
	delete(c.hosted, src)
	delete(c.phases, jobID)
	a.Ack([]int{jobID}) // best effort: clears the revocation staging
	if dest == "" {
		c.queue = append(c.queue, j)
		c.emit("evict", src, jobID)
		return nil
	}
	c.migrating = append(c.migrating, &transfer{
		job:     j,
		dest:    dest,
		arrival: c.now + core.DefaultMigrationCost().Time(j.SizeMB),
	})
	c.migrations++
	c.emit("migrate", dest, jobID)
	return nil
}

// landMigrations assigns transfers whose arrival time has passed. Recovery
// transfers (empty dest) land in the queue; a destination that turned
// unhealthy or unviable sends the job back to the queue as well.
func (c *Coordinator) landMigrations() {
	remaining := c.migrating[:0]
	var landedQueue []*Job
	for _, tr := range c.migrating {
		if tr.arrival > c.now {
			remaining = append(remaining, tr)
			continue
		}
		if tr.dest == "" || !c.healthy(tr.dest) {
			landedQueue = append(landedQueue, tr.job)
			continue
		}
		if c.assignTo(tr.dest, tr.job) == assignRejected {
			// Destination no longer viable (owner memory surged): requeue.
			landedQueue = append(landedQueue, tr.job)
		}
	}
	c.migrating = remaining
	c.queue = append(c.queue, landedQueue...)
}

// step runs core.Step for the job hosted on name and carries out its
// action. The coordinator applies the paper's model unscaled: linger
// multiplier 1 and the 2x-age rule, under which an episode's predicted
// remainder equals its age.
func (c *Coordinator) step(name string, jobID int) error {
	st := c.status[name]
	ph := c.phases[jobID]
	sit := core.Situation{
		Policy:           c.cfg.Policy,
		Phase:            ph.phase,
		OwnerIdle:        st.Idle,
		PauseExpired:     c.now-ph.pausedAt >= c.cfg.PauseTime,
		LingerMultiplier: 1,
	}
	dest := ""
	if sit.NeedsDest() {
		size := c.jobSize(jobID)
		dest = c.findDest(size, false, name)
		if dest != "" {
			sit.HasDest = true
			sit.H = st.EpisodeUtil
			sit.L = c.status[dest].Util
			sit.Remaining = st.EpisodeAge
			sit.Tmigr = core.DefaultMigrationCost().Time(size)
		}
	}
	switch core.Step(sit) {
	case core.Linger:
		c.phases[jobID] = hostedPhase{phase: core.PhaseLingering}
		return c.step(name, jobID)
	case core.Pause:
		return c.pauseJob(name, jobID, true)
	case core.Resume:
		if ph.phase == core.PhasePaused {
			return c.pauseJob(name, jobID, false)
		}
		delete(c.phases, jobID)
	case core.Migrate, core.Evict:
		return c.leave(jobID, name, dest) // dest is empty exactly for Evict
	}
	return nil
}

// pauseJob suspends or resumes a hosted job, updating its phase only on
// success; a transient failure is skipped and retried on the next step's
// policy pass.
func (c *Coordinator) pauseJob(name string, jobID int, paused bool) error {
	err := c.agentByName(name).Pause(jobID, paused)
	if err != nil {
		if IsTransient(err) {
			return nil
		}
		return err
	}
	if paused {
		c.phases[jobID] = hostedPhase{phase: core.PhasePaused, pausedAt: c.now}
	} else {
		delete(c.phases, jobID)
	}
	return nil
}

// jobSize returns the image size of a submitted job (recorded at
// submission), falling back to the paper's 8 MB for unknown IDs.
func (c *Coordinator) jobSize(jobID int) float64 {
	if s, ok := c.sizes[jobID]; ok {
		return s
	}
	return 8
}

// placeQueued assigns queued jobs to free agents (idle first; non-idle
// fallback under the linger policies).
func (c *Coordinator) placeQueued() {
	if len(c.queue) == 0 {
		return
	}
	allowNonIdle := c.cfg.Policy.Lingers()
	pending := c.queue
	c.queue = c.queue[:0]
	for _, j := range pending {
		dest := c.findDest(j.SizeMB, allowNonIdle, "")
		if dest == "" {
			c.queue = append(c.queue, j)
			continue
		}
		if c.assignTo(dest, j) == assignRejected {
			c.queue = append(c.queue, j)
		}
	}
}
