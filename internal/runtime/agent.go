package runtime

import (
	"fmt"
	"sort"
	"sync"

	"lingerlonger/internal/exp"
	"lingerlonger/internal/memory"
	"lingerlonger/internal/obs"
)

// Agent is one workstation daemon: it executes at most one foreign job at
// strictly lower priority than the owner's workload and answers the
// coordinator's tick/assign/revoke/pause requests. Methods are safe for
// concurrent use (the TCP server invokes them from a connection
// goroutine).
//
// For fault tolerance the agent keeps two pieces of staging until the
// coordinator acknowledges them with Ack: finished jobs (re-reported in
// every tick status) and the state surrendered by Revoke (so a Revoke
// whose reply was lost can be retried, or recovered from the status
// report). Call is the at-most-once entry point: requests stamped with a
// sequence number are executed once and their response cached, so a
// retried request never double-executes.
type Agent struct {
	mu sync.Mutex

	name  string
	owner OwnerSource
	pool  *memory.Pool

	now    float64
	job    *Job
	paused bool

	inEpisode      bool
	episodeStart   float64
	episodeUtilSum float64
	episodeTicks   int

	completed []Job       // finished jobs awaiting acknowledgment
	revoked   map[int]Job // revoked job state awaiting acknowledgment

	// Per-client-stream dedup caches. Each client stream (keyed by the
	// request's Client ID; "" is the legacy single-connection stream) gets
	// its own last-response cache and its own lock, so calls from distinct
	// streams execute concurrently while calls within one stream keep the
	// strict sequential at-most-once contract.
	callMu  sync.Mutex // guards streams map access only
	streams map[string]*callStream
	dedupC  *obs.Counter // runtime.rpc.dedup_hits; nil = observability off

	executor exp.TaskFunc // reqWork handler; nil = agent serves no work
}

// callStream is the at-most-once state of one client call stream.
type callStream struct {
	mu       sync.Mutex // serializes calls within the stream
	lastSeq  uint64
	lastResp response
}

// SetRecorder attaches an observability recorder: Call increments the
// runtime.rpc.dedup_hits counter whenever the sequence-number cache
// suppresses a duplicate request. Metrics are outputs only; the protocol
// never reads them.
func (a *Agent) SetRecorder(r *obs.Recorder) {
	a.dedupC = r.Counter(obs.RPCDedupHits)
}

// NewAgent returns an agent named name whose owner workload comes from
// owner, on a machine of totalMB megabytes.
func NewAgent(name string, owner OwnerSource, totalMB float64) *Agent {
	return &Agent{
		name:    name,
		owner:   owner,
		pool:    memory.NewPool(totalMB, 4),
		revoked: map[int]Job{},
		streams: map[string]*callStream{},
	}
}

// SetWorkExecutor attaches the task executor that answers reqWork calls —
// typically the Run method of an exp.Tasks registry shared with the serial
// sweep path. Executors must be pure functions of the PointSpec (the
// remote-execution contract of internal/exp); an agent without an executor
// rejects work requests with an agent-level (non-transient) error. Call
// before serving.
func (a *Agent) SetWorkExecutor(fn exp.TaskFunc) { a.executor = fn }

// Name returns the agent's name.
func (a *Agent) Name() string { return a.name }

// Now returns the agent's virtual clock.
func (a *Agent) Now() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.now
}

// PoolPages returns a snapshot of the agent's priority page pool for
// diagnostics and invariant checks: free, owner-resident (local),
// guest-resident (foreign), and total pages.
func (a *Agent) PoolPages() (free, local, foreign, total int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pool.FreePages(), a.pool.LocalPages(), a.pool.ForeignPages(), a.pool.TotalPages()
}

// Assign places job on the agent. It fails if the agent already hosts a
// job or the free list cannot hold the job's image (the priority
// page-pool admission check).
func (a *Agent) Assign(j *Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.job != nil {
		if a.job.ID == j.ID {
			return nil // idempotent: a retried Assign whose reply was lost
		}
		return fmt.Errorf("runtime: agent %s already hosts job %d", a.name, a.job.ID)
	}
	// Reflect the owner's current memory demand in the pool, then admit.
	a.syncPoolLocked()
	if !a.pool.CanHost(j.SizeMB) {
		return fmt.Errorf("runtime: agent %s cannot host %g MB (free list %d pages)",
			a.name, j.SizeMB, a.pool.FreePages())
	}
	a.pool.RequestForeign(a.pool.PagesForMB(j.SizeMB))
	cp := *j
	a.job = &cp
	a.paused = false
	return nil
}

// Revoke removes and returns the agent's job state (for migration). The
// surrendered state is also staged until the coordinator acknowledges it
// with Ack, so a repeated Revoke for the same job (a retry after a lost
// reply) returns the same state instead of failing. It fails when the job
// is neither hosted nor staged.
func (a *Agent) Revoke(jobID int) (*Job, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.job == nil || a.job.ID != jobID {
		if staged, ok := a.revoked[jobID]; ok {
			cp := staged
			return &cp, nil
		}
		return nil, fmt.Errorf("runtime: agent %s does not host job %d", a.name, jobID)
	}
	j := a.job
	a.job = nil
	a.paused = false
	a.pool.ReleaseForeign(a.pool.ForeignPages())
	a.revoked[j.ID] = *j
	return j, nil
}

// Ack clears the completion and revocation staging for the given job IDs.
// The coordinator calls it after processing a status report; an Ack lost in
// transit is harmless because staging is simply re-reported and the
// coordinator deduplicates.
func (a *Agent) Ack(ids []int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, id := range ids {
		delete(a.revoked, id)
		for i, j := range a.completed {
			if j.ID == id {
				a.completed = append(a.completed[:i], a.completed[i+1:]...)
				break
			}
		}
	}
	return nil
}

// Pause suspends or resumes the hosted job in place (Pause-and-Migrate's
// first stage).
func (a *Agent) Pause(jobID int, paused bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.job == nil || a.job.ID != jobID {
		return fmt.Errorf("runtime: agent %s does not host job %d", a.name, jobID)
	}
	a.paused = paused
	return nil
}

// syncPoolLocked aligns the pool's local working set with the owner's
// current memory demand. Must hold a.mu.
func (a *Agent) syncPoolLocked() {
	total := float64(a.pool.TotalPages()) * 4 / 1024 // MB
	localMB := total - a.owner.FreeMBAt(a.now)
	if localMB < 0 {
		localMB = 0
	}
	a.pool.SetLocalUsage(a.pool.PagesForMB(localMB))
}

// Tick advances the agent dt seconds of virtual time and returns its
// status. The foreign job runs at strictly lower priority: it accrues
// (1 - ownerUtil) CPU per second, and nothing while paused.
func (a *Agent) Tick(dt float64) (AgentStatus, error) {
	if dt <= 0 {
		return AgentStatus{}, fmt.Errorf("runtime: non-positive tick %g", dt)
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	util := a.owner.UtilizationAt(a.now)
	idle := a.owner.IdleAt(a.now)

	// Episode accounting: a non-idle episode spans consecutive non-idle
	// ticks while a job is attached (matching the simulator).
	if a.job != nil && !idle {
		if !a.inEpisode {
			a.inEpisode = true
			a.episodeStart = a.now
			a.episodeUtilSum = 0
			a.episodeTicks = 0
		}
		a.episodeUtilSum += util
		a.episodeTicks++
	} else {
		a.inEpisode = false
	}

	if a.job != nil && !a.paused {
		a.job.Progress += dt * (1 - util)
	}
	a.now += dt
	a.syncPoolLocked()

	st := AgentStatus{
		Name:   a.name,
		Idle:   idle,
		Util:   util,
		FreeMB: float64(a.pool.FreePages()) * 4 / 1024,
		JobID:  -1,
	}
	if a.inEpisode {
		st.EpisodeAge = a.now - a.episodeStart
		st.EpisodeUtil = a.episodeUtilSum / float64(a.episodeTicks)
	}
	if a.job != nil {
		st.JobID = a.job.ID
		st.JobProgress = a.job.Progress
		if a.job.Done() {
			st.JobDone = true
			a.completed = append(a.completed, *a.job)
			a.job = nil
			a.paused = false
			a.inEpisode = false
			a.pool.ReleaseForeign(a.pool.ForeignPages())
		}
	}
	st.Finished = append([]Job(nil), a.completed...)
	if len(a.revoked) > 0 {
		ids := make([]int, 0, len(a.revoked))
		for id := range a.revoked {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			st.Revoked = append(st.Revoked, a.revoked[id])
		}
	}
	return st, nil
}

// Call is the request-level entry point shared by the TCP server and the
// in-process fault client. Requests with a non-zero sequence number get
// at-most-once semantics per client stream: a request whose sequence
// matches the stream's previous one returns the cached response without
// re-executing (the retry of a call whose reply was lost). Calls must be
// sequential within a stream — which each client's synchronous call loop
// guarantees — while distinct streams proceed concurrently.
func (a *Agent) Call(req request) response {
	st := a.stream(req.Client)
	st.mu.Lock()
	defer st.mu.Unlock()
	if req.Seq != 0 && req.Seq == st.lastSeq {
		a.dedupC.Inc()
		return st.lastResp
	}
	resp := a.dispatch(req)
	if req.Seq != 0 {
		st.lastSeq, st.lastResp = req.Seq, resp
	}
	return resp
}

// stream returns (creating if needed) the dedup state for one client ID.
func (a *Agent) stream(client string) *callStream {
	a.callMu.Lock()
	defer a.callMu.Unlock()
	st := a.streams[client]
	if st == nil {
		st = &callStream{}
		a.streams[client] = st
	}
	return st
}

// dispatch executes one protocol request against the agent.
func (a *Agent) dispatch(req request) response {
	var resp response
	switch req.Kind {
	case reqName:
		resp.Name = a.Name()
	case reqTick:
		st, err := a.Tick(req.Dt)
		resp.Status = st
		resp.Err = errString(err)
	case reqAssign:
		resp.Err = errString(a.Assign(req.Job))
	case reqRevoke:
		j, err := a.Revoke(req.JobID)
		resp.Job = j
		resp.Err = errString(err)
	case reqPause:
		resp.Err = errString(a.Pause(req.JobID, req.Paused))
	case reqAck:
		resp.Err = errString(a.Ack(req.Ack))
	case reqWork:
		if a.executor == nil {
			resp.Err = fmt.Sprintf("runtime: agent %s serves no work (no executor attached)", a.name)
			break
		}
		if req.Work == nil {
			resp.Err = "runtime: work request without a point spec"
			break
		}
		data, err := a.work(*req.Work)
		resp.Data = data
		resp.Err = errString(err)
	default:
		resp.Err = fmt.Sprintf("runtime: unknown request kind %d", req.Kind)
	}
	return resp
}

// work runs the executor on one point and returns a panic as the point's
// error, so one bad point cannot take the agent process down.
func (a *Agent) work(spec exp.PointSpec) (data []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("runtime: agent %s: executor panicked on point %d of %q: %v", a.name, spec.Index, spec.Sweep, p)
		}
	}()
	return a.executor(spec)
}

// DrainCompleted returns and clears the jobs finished since the last call.
func (a *Agent) DrainCompleted() []Job {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.completed
	a.completed = nil
	return out
}

// HasJob reports whether the agent currently hosts a job.
func (a *Agent) HasJob() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.job != nil
}
