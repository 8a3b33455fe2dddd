package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lingerlonger/internal/core"
	"lingerlonger/internal/exp"
	"lingerlonger/internal/obs"
	"lingerlonger/internal/stats"
)

// scriptInjector is a deterministic, scriptable FaultInjector for
// scenario tests: verdict receives the per-target attempt index n and the
// per-(target,kind) attempt index kn.
type scriptInjector struct {
	mu         sync.Mutex
	counts     map[string]int
	kindCounts map[string]int
	verdict    func(target string, kind reqKind, n, kn int) FaultAction
}

func newScriptInjector(verdict func(target string, kind reqKind, n, kn int) FaultAction) *scriptInjector {
	return &scriptInjector{
		counts:     map[string]int{},
		kindCounts: map[string]int{},
		verdict:    verdict,
	}
}

func (s *scriptInjector) Next(target string, kind reqKind) FaultAction {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.counts[target]
	s.counts[target]++
	key := target + "/" + strconv.Itoa(int(kind))
	kn := s.kindCounts[key]
	s.kindCounts[key]++
	return s.verdict(target, kind, n, kn)
}

// newFaultCluster builds a coordinator over FaultClients and returns the
// underlying agents for state inspection.
func newFaultCluster(t *testing.T, cfg CoordinatorConfig, owners []*ScriptedOwner, inj FaultInjector, counters *FaultCounters) (*Coordinator, []*Agent) {
	t.Helper()
	agents := make([]*Agent, len(owners))
	clients := make([]AgentClient, len(owners))
	for i, o := range owners {
		agents[i] = NewAgent(agentName(i), o, 64)
		retry := DefaultRetryConfig()
		retry.Seed = exp.DeriveSeed(99, i)
		clients[i] = NewFaultClient(agents[i], inj, retry, counters)
	}
	c, err := NewCoordinator(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	return c, agents
}

// stepChecked advances the coordinator and asserts the job-accounting
// invariants after every step.
func stepChecked(t *testing.T, c *Coordinator, steps int, stopWhenDone int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		if err := c.Step(1); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if stopWhenDone > 0 && len(c.Completed()) >= stopWhenDone {
			return
		}
	}
}

func TestParseFaultSpec(t *testing.T) {
	cfg, err := ParseFaultSpec("drop=0.05,dropreply=0.02,corrupt=0.01,delay=0.03,seed=42,partition=beta:150+200")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Drop != 0.05 || cfg.DropReply != 0.02 || cfg.Corrupt != 0.01 || cfg.Delay != 0.03 || cfg.Seed != 42 {
		t.Errorf("parsed config = %+v", cfg)
	}
	if p := cfg.Partitions["beta"]; p.FromCall != 150 || p.Calls != 200 {
		t.Errorf("parsed partition = %+v", p)
	}
	if !cfg.Enabled() {
		t.Error("parsed config reports disabled")
	}
	for _, bad := range []string{
		"drop", "drop=x", "drop=1.5", "drop=0.6,dropreply=0.6", "seed=x",
		"partition=beta", "partition=beta:1", "partition=beta:-1+2", "wat=1",
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	if empty, err := ParseFaultSpec(""); err != nil || empty.Enabled() {
		t.Errorf("empty spec = %+v, %v", empty, err)
	}
}

func TestSeededInjectorDeterministicPerTarget(t *testing.T) {
	cfg := FaultConfig{Drop: 0.2, DropReply: 0.1, Corrupt: 0.1, Delay: 0.1, Seed: 7}
	run := func() [][]FaultAction {
		inj, err := NewSeededInjector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]FaultAction
		for _, target := range []string{"alpha", "beta"} {
			var seq []FaultAction
			for i := 0; i < 200; i++ {
				seq = append(seq, inj.Next(target, reqTick))
			}
			out = append(out, seq)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("verdict %d for target %d differs across runs: %v vs %v", j, i, a[i][j], b[i][j])
			}
		}
	}
	// Streams for distinct targets must not be identical.
	same := true
	for j := range a[0] {
		if a[0][j] != a[1][j] {
			same = false
			break
		}
	}
	if same {
		t.Error("alpha and beta received identical verdict streams")
	}
	// A partition severs exactly its window without shifting later verdicts.
	cfgPart := cfg
	cfgPart.Partitions = map[string]Partition{"alpha": {FromCall: 10, Calls: 5}}
	injPart, err := NewSeededInjector(cfgPart)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		got := injPart.Next("alpha", reqTick)
		switch {
		case i >= 10 && i < 15:
			if got != FaultDropSend {
				t.Errorf("verdict %d = %v inside partition window", i, got)
			}
		default:
			if got != a[0][i] {
				t.Errorf("verdict %d = %v, want %v (partition shifted the stream)", i, got, a[0][i])
			}
		}
	}
}

func TestFaultInjectorValidation(t *testing.T) {
	for _, cfg := range []FaultConfig{
		{Drop: -0.1},
		{Corrupt: 1.1},
		{Drop: 0.6, DropReply: 0.6},
		{Partitions: map[string]Partition{"x": {FromCall: -1}}},
	} {
		if _, err := NewSeededInjector(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// A transient fault on a single tick must be absorbed by the retry loop
// with zero behavioral difference: at-most-once semantics guarantee the
// retried tick does not advance the agent twice.
func TestDroppedTickIsTransparent(t *testing.T) {
	scenario := func(inj FaultInjector) ([]CompletedJob, int) {
		counters := &FaultCounters{}
		c, _ := newFaultCluster(t, DefaultCoordinatorConfig(),
			[]*ScriptedOwner{busyAfter(t, 40, 0.6), quietOwner(t), quietOwner(t)}, inj, counters)
		for i := 0; i < 3; i++ {
			if _, err := c.Submit(80, 8); err != nil {
				t.Fatal(err)
			}
		}
		stepChecked(t, c, 400, 0)
		return c.Completed(), c.Migrations()
	}

	cleanDone, cleanMigr := scenario(nil)
	for _, action := range []FaultAction{FaultDropSend, FaultDropReply, FaultCorrupt, FaultDelay} {
		counters := 0
		inj := newScriptInjector(func(target string, kind reqKind, n, kn int) FaultAction {
			if target == agentName(0) && kind == reqTick && kn == 5 {
				counters++
				return action
			}
			return FaultNone
		})
		done, migr := scenario(inj)
		if counters == 0 {
			t.Fatalf("%v: fault never injected", action)
		}
		if migr != cleanMigr {
			t.Errorf("%v: migrations %d, clean run %d", action, migr, cleanMigr)
		}
		if len(done) != len(cleanDone) {
			t.Fatalf("%v: %d completions, clean run %d", action, len(done), len(cleanDone))
		}
		for i := range done {
			if done[i].Job.ID != cleanDone[i].Job.ID ||
				done[i].CompletedAt != cleanDone[i].CompletedAt ||
				done[i].Agent != cleanDone[i].Agent {
				t.Errorf("%v: completion %d = %+v, clean run %+v", action, i, done[i], cleanDone[i])
			}
		}
	}
}

// An Assign whose reply is lost leaves the job's location unknown; the
// next status report must resolve it to exactly one copy.
func TestAmbiguousAssignResolvesWithoutDoubleAssign(t *testing.T) {
	victim := agentName(1)
	inj := newScriptInjector(func(target string, kind reqKind, n, kn int) FaultAction {
		if target == victim && kind == reqAssign && kn < DefaultRetryConfig().MaxAttempts {
			return FaultDropReply // every attempt of the first logical Assign
		}
		return FaultNone
	})
	counters := &FaultCounters{}
	c, agents := newFaultCluster(t, DefaultCoordinatorConfig(),
		[]*ScriptedOwner{quietOwner(t), quietOwner(t)}, inj, counters)
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(30, 8); err != nil {
			t.Fatal(err)
		}
	}
	stepChecked(t, c, 200, 2)
	if got := len(c.Completed()); got != 2 {
		t.Fatalf("completed %d of 2 jobs", got)
	}
	if c.Counters().AmbiguousAssigns == 0 {
		t.Error("ambiguous assign never recorded")
	}
	if counters.Retries == 0 {
		t.Error("no retries recorded")
	}
	for _, a := range agents {
		if a.HasJob() {
			t.Errorf("agent %s still hosts a job after convergence", a.Name())
		}
	}
}

// Partition an agent right after its Assign executes with a lost reply:
// the agent must be declared dead, its job recovered from the limbo copy
// and completed elsewhere, and the stale duplicate revoked on
// resurrection — with the job completing exactly once.
func TestPartitionMidAssignRecoversJob(t *testing.T) {
	victim := agentName(1)
	var (
		mu        sync.Mutex
		severed   bool
		dropUntil int
	)
	inj := newScriptInjector(func(target string, kind reqKind, n, kn int) FaultAction {
		if target != victim {
			return FaultNone
		}
		mu.Lock()
		defer mu.Unlock()
		if kind == reqAssign && !severed {
			severed = true
			dropUntil = n + 60
			return FaultDropReply
		}
		if severed && n < dropUntil {
			return FaultDropSend
		}
		return FaultNone
	})
	counters := &FaultCounters{}
	c, agents := newFaultCluster(t, DefaultCoordinatorConfig(),
		[]*ScriptedOwner{quietOwner(t), quietOwner(t), quietOwner(t)}, inj, counters)
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(60, 8); err != nil {
			t.Fatal(err)
		}
	}
	stepChecked(t, c, 400, 0) // run past resurrection so the stale copy is reaped
	rc := c.Counters()
	if rc.Died == 0 {
		t.Fatalf("victim never declared dead: %+v", rc)
	}
	if rc.RecoveredJobs == 0 {
		t.Errorf("no job recovered: %+v", rc)
	}
	if rc.Resurrected == 0 {
		t.Errorf("victim never resurrected: %+v", rc)
	}
	if got := len(c.Completed()); got != 2 {
		t.Fatalf("completed %d of 2 jobs: %+v", got, rc)
	}
	seen := map[int]bool{}
	for _, d := range c.Completed() {
		if seen[d.Job.ID] {
			t.Errorf("job %d completed twice", d.Job.ID)
		}
		seen[d.Job.ID] = true
	}
	// After convergence no duplicate copy survives and the priority page
	// pools are clean: no foreign pages without a hosted job.
	for _, a := range agents {
		if a.HasJob() {
			t.Errorf("agent %s still hosts a job", a.Name())
		}
		free, local, foreign, total := a.PoolPages()
		if foreign != 0 {
			t.Errorf("agent %s: %d foreign pages with no job", a.Name(), foreign)
		}
		if free+local+foreign != total {
			t.Errorf("agent %s: pages %d+%d+%d != %d", a.Name(), free, local, foreign, total)
		}
	}
}

// Crash during Revoke: the revoke executes, its reply is lost, and the
// agent is partitioned before the retry gets through. The surrendered
// state is staged on the agent and the coordinator recovers the job from
// its checkpoint; on resurrection the staging merges without duplicating
// the job.
func TestCrashDuringRevokeConverges(t *testing.T) {
	victim := agentName(0)
	var (
		mu        sync.Mutex
		severed   bool
		dropUntil int
	)
	inj := newScriptInjector(func(target string, kind reqKind, n, kn int) FaultAction {
		if target != victim {
			return FaultNone
		}
		mu.Lock()
		defer mu.Unlock()
		if kind == reqRevoke && !severed {
			severed = true
			dropUntil = n + 60
			return FaultDropReply
		}
		if severed && n < dropUntil {
			return FaultDropSend
		}
		return FaultNone
	})
	counters := &FaultCounters{}
	// The busy owner on the victim forces an LL migration off it.
	c, agents := newFaultCluster(t, DefaultCoordinatorConfig(),
		[]*ScriptedOwner{busyAfter(t, 30, 0.6), quietOwner(t), quietOwner(t)}, inj, counters)
	if _, err := c.Submit(300, 8); err != nil {
		t.Fatal(err)
	}
	stepChecked(t, c, 1500, 1)
	rc := c.Counters()
	if !severed {
		t.Fatal("revoke fault never triggered (no migration attempted)")
	}
	if rc.AmbiguousRevokes == 0 {
		t.Errorf("ambiguous revoke never recorded: %+v", rc)
	}
	if got := len(c.Completed()); got != 1 {
		t.Fatalf("completed %d of 1 jobs: %+v", got, rc)
	}
	done := c.Completed()[0]
	if done.Job.Progress < 300-1e-6 {
		t.Errorf("job completed with progress %g < 300", done.Job.Progress)
	}
	for _, a := range agents {
		if a.HasJob() {
			t.Errorf("agent %s still hosts a job", a.Name())
		}
	}
}

// chaosFingerprint runs a randomized fault scenario under policy p to
// completion and returns a full textual fingerprint of its outcome and the
// number of evictions. With allBusy every agent's owner is busy at once,
// so IE and PM find no idle destination and evict to the queue.
func chaosFingerprint(t *testing.T, seed int64, p core.Policy, allBusy bool) (string, int) {
	t.Helper()
	inj, err := NewSeededInjector(FaultConfig{
		Drop: 0.08, DropReply: 0.04, Corrupt: 0.04, Delay: 0.02, Seed: seed,
		Partitions: map[string]Partition{agentName(2): {FromCall: 120, Calls: 90}},
	})
	if err != nil {
		t.Fatal(err)
	}
	owners := []*ScriptedOwner{busyAfter(t, 40, 0.5), quietOwner(t), quietOwner(t), quietOwner(t)}
	if allBusy {
		for i := range owners {
			owners[i] = busyBetween(t, 40, 100, 0.5)
		}
	}
	counters := &FaultCounters{}
	cfg := DefaultCoordinatorConfig()
	cfg.Policy = p
	var trace bytes.Buffer
	sink := obs.NewEventSink(&trace)
	cfg.Rec = obs.New(nil, sink)
	c, agents := newFaultCluster(t, cfg, owners, inj, counters)
	for i := 0; i < 6; i++ {
		if _, err := c.Submit(60, 8); err != nil {
			t.Fatal(err)
		}
	}
	stepChecked(t, c, 2000, 0)
	if got := len(c.Completed()); got != 6 {
		t.Fatalf("%v chaos run completed %d of 6 jobs: %+v / %+v", p, got, c.Counters(), counters)
	}
	if counters.Retries == 0 {
		t.Errorf("%v chaos run recorded no retries", p)
	}
	for _, a := range agents {
		free, local, foreign, total := a.PoolPages()
		if a.HasJob() || foreign != 0 || free+local+foreign != total {
			t.Errorf("%v: agent %s pool dirty after convergence: free %d local %d foreign %d / %d",
				p, a.Name(), free, local, foreign, total)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	evictions := strings.Count(trace.String(), `"kind":"evict"`)
	return fmt.Sprintf("%+v|%+v|%+v|q%d|e%d", c.Completed(), c.Counters(), *counters, c.QueueLen(), evictions), evictions
}

// The same seed must produce byte-identical outcomes — including under
// -race, where the CI runs this test — and a different seed must not, for
// every paper policy that acts on an owner's return, both with a spare
// idle agent and with every owner busy at once.
func TestChaosDeterministicAcrossRuns(t *testing.T) {
	for _, p := range []core.Policy{core.LingerLonger, core.ImmediateEviction, core.PauseAndMigrate} {
		for _, allBusy := range []bool{false, true} {
			a, evictions := chaosFingerprint(t, 7, p, allBusy)
			if b, _ := chaosFingerprint(t, 7, p, allBusy); a != b {
				t.Errorf("%v allBusy=%v: same seed, different outcomes:\n%s\n%s", p, allBusy, a, b)
			}
			if c, _ := chaosFingerprint(t, 8, p, allBusy); c == a {
				t.Errorf("%v allBusy=%v: different seed produced an identical outcome (injector ignores the seed?)", p, allBusy)
			}
			// LL never evicts; IE and PM must when no owner is idle.
			lingers := p == core.LingerLonger
			if lingers && evictions > 0 || !lingers && allBusy && evictions == 0 {
				t.Errorf("%v allBusy=%v: %d evictions", p, allBusy, evictions)
			}
		}
	}
}

// The suspect state must keep an agent out of placement decisions before
// it is declared dead.
func TestSuspectAgentsReceiveNoWork(t *testing.T) {
	victim := agentName(0)
	inj := newScriptInjector(func(target string, kind reqKind, n, kn int) FaultAction {
		if target == victim {
			return FaultDropSend // severed from the start
		}
		return FaultNone
	})
	cfg := DefaultCoordinatorConfig()
	cfg.Health = core.HealthPolicy{SuspectAfter: 1, DeadAfter: 1000}
	c, agents := newFaultCluster(t, cfg,
		[]*ScriptedOwner{quietOwner(t), quietOwner(t)}, inj, &FaultCounters{})
	if _, err := c.Submit(20, 8); err != nil {
		t.Fatal(err)
	}
	stepChecked(t, c, 60, 1)
	if agents[0].HasJob() {
		t.Error("suspect agent received the job")
	}
	if len(c.Completed()) != 1 {
		t.Fatalf("job did not complete on the healthy agent")
	}
	if c.Completed()[0].Agent != agentName(1) {
		t.Errorf("job completed on %q, want the healthy agent", c.Completed()[0].Agent)
	}
	if c.AgentHealth(victim) != core.Suspect {
		t.Errorf("victim health = %v, want suspect", c.AgentHealth(victim))
	}
}

// Typed-error plumbing: every AgentClient call site must surface the
// deadline as an error wrapping ErrAgentTimeout.
func TestFaultClientReturnsTypedTimeout(t *testing.T) {
	inj := newScriptInjector(func(string, reqKind, int, int) FaultAction { return FaultDropSend })
	a := NewAgent("w1", quietOwner(t), 64)
	c := NewFaultClient(a, inj, RetryConfig{MaxAttempts: 2}, nil)

	if _, err := c.Tick(1); !errors.Is(err, ErrAgentTimeout) {
		t.Errorf("Tick error = %v, want ErrAgentTimeout", err)
	}
	if err := c.Assign(&Job{ID: 1, DemandS: 5, SizeMB: 8}); !errors.Is(err, ErrAgentTimeout) {
		t.Errorf("Assign error = %v, want ErrAgentTimeout", err)
	}
	if _, err := c.Revoke(1); !errors.Is(err, ErrAgentTimeout) {
		t.Errorf("Revoke error = %v, want ErrAgentTimeout", err)
	}
	if err := c.Pause(1, true); !errors.Is(err, ErrAgentTimeout) {
		t.Errorf("Pause error = %v, want ErrAgentTimeout", err)
	}
	if err := c.Ack([]int{1}); !errors.Is(err, ErrAgentTimeout) {
		t.Errorf("Ack error = %v, want ErrAgentTimeout", err)
	}
	if a.Now() != 0 {
		t.Errorf("agent advanced to %g through a severed network", a.Now())
	}
	if !IsTransient(fmt.Errorf("wrap: %w", ErrCorruptFrame)) || IsTransient(errors.New("other")) {
		t.Error("IsTransient misclassifies")
	}
}

// At-most-once execution: a lost reply plus retry must not run the call
// twice, for ticks (time would double-advance) and assigns alike.
func TestFaultClientAtMostOnce(t *testing.T) {
	dropFirst := func(kind reqKind) *scriptInjector {
		return newScriptInjector(func(target string, k reqKind, n, kn int) FaultAction {
			if k == kind && kn == 0 {
				return FaultDropReply
			}
			return FaultNone
		})
	}

	a := NewAgent("w1", quietOwner(t), 64)
	c := NewFaultClient(a, dropFirst(reqTick), DefaultRetryConfig(), nil)
	st, err := c.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Now() != 1 {
		t.Errorf("agent at %g after one logical tick, want 1 (double-executed retry?)", a.Now())
	}
	if st.Name != "w1" {
		t.Errorf("cached status = %+v", st)
	}

	b := NewAgent("w2", quietOwner(t), 64)
	cb := NewFaultClient(b, dropFirst(reqAssign), DefaultRetryConfig(), nil)
	if err := cb.Assign(&Job{ID: 3, DemandS: 5, SizeMB: 8}); err != nil {
		t.Fatal(err)
	}
	if !b.HasJob() {
		t.Error("assign lost despite retry")
	}
}

func TestFaultActionString(t *testing.T) {
	for want, a := range map[string]FaultAction{
		"none": FaultNone, "drop-send": FaultDropSend, "drop-reply": FaultDropReply,
		"corrupt": FaultCorrupt, "delay": FaultDelay,
	} {
		if a.String() != want {
			t.Errorf("String() = %q, want %q", a.String(), want)
		}
	}
	if FaultAction(99).String() == "" {
		t.Error("unknown action stringifies empty")
	}
}

// localCluster builds a coordinator over plain LocalClients.
func localCluster(t *testing.T, cfg CoordinatorConfig, owners []*ScriptedOwner) (*Coordinator, []*Agent) {
	t.Helper()
	agents := make([]*Agent, len(owners))
	clients := make([]AgentClient, len(owners))
	for i, o := range owners {
		agents[i] = NewAgent(agentName(i), o, 64)
		clients[i] = LocalClient{Agent: agents[i]}
	}
	c, err := NewCoordinator(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	return c, agents
}

// White-box: a status report that no longer mentions the believed-hosted
// job and carries no staging means the job vanished — it must be restored
// from the checkpoint, and the agent's lingering real copy reaped as a
// stale duplicate afterwards. The job completes exactly once.
func TestReconcileMissingVanishedJob(t *testing.T) {
	c, _ := localCluster(t, DefaultCoordinatorConfig(), []*ScriptedOwner{quietOwner(t)})
	if _, err := c.Submit(30, 8); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(1); err != nil {
		t.Fatal(err)
	}
	name := agentName(0)
	if c.hosted[name] != 0 {
		t.Fatalf("job not hosted after first step: %+v", c.hosted)
	}
	// Forge a report that has forgotten the job entirely.
	c.processStatus(c.agents[0], name, AgentStatus{Name: name, JobID: -1})
	rc := c.Counters()
	if rc.VanishedJobs != 1 || rc.RecoveredJobs != 1 {
		t.Fatalf("after vanish report: %+v", rc)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	stepChecked(t, c, 200, 1)
	if len(c.Completed()) != 1 {
		t.Fatalf("completed %d of 1 jobs", len(c.Completed()))
	}
	if c.Counters().StaleRevokes == 0 {
		t.Errorf("the agent's real copy was never reaped: %+v", c.Counters())
	}
}

// White-box: the believed-hosted job shows up in the report's revocation
// staging instead — its surrendered state (with the freshest progress)
// must be recovered, not the older checkpoint.
func TestReconcileMissingRecoversFromStaging(t *testing.T) {
	c, _ := localCluster(t, DefaultCoordinatorConfig(), []*ScriptedOwner{quietOwner(t)})
	if _, err := c.Submit(30, 8); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(1); err != nil {
		t.Fatal(err)
	}
	name := agentName(0)
	staged := Job{ID: 0, DemandS: 30, SizeMB: 8, Progress: 5}
	c.processStatus(c.agents[0], name, AgentStatus{Name: name, JobID: -1, Revoked: []Job{staged}})
	if rc := c.Counters(); rc.RecoveredJobs != 1 || rc.VanishedJobs != 0 {
		t.Fatalf("after staged report: %+v", rc)
	}
	if len(c.migrating) != 1 || c.migrating[0].job.Progress != 5 {
		t.Fatalf("recovered transfer = %+v", c.migrating)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// White-box: revoke-limbo resolution — the job either turns out to still
// be hosted (the revoke never executed) or has vanished without staging
// (restore from checkpoint).
func TestLimboRevokeResolution(t *testing.T) {
	c, _ := localCluster(t, DefaultCoordinatorConfig(), []*ScriptedOwner{quietOwner(t)})
	if _, err := c.Submit(30, 8); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(1); err != nil {
		t.Fatal(err)
	}
	name := agentName(0)

	// Case 1: the agent still reports the job — it stays hosted.
	delete(c.hosted, name)
	c.limboRevoke[name] = 0
	c.processStatus(c.agents[0], name, AgentStatus{Name: name, JobID: 0, JobProgress: 1})
	if c.hosted[name] != 0 || len(c.limboRevoke) != 0 {
		t.Fatalf("limbo revoke did not re-host: hosted %+v limbo %+v", c.hosted, c.limboRevoke)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Case 2: the agent reports neither the job nor staging — checkpoint
	// restore.
	delete(c.hosted, name)
	c.limboRevoke[name] = 0
	c.processStatus(c.agents[0], name, AgentStatus{Name: name, JobID: -1})
	rc := c.Counters()
	if rc.VanishedJobs != 1 || rc.RecoveredJobs != 1 {
		t.Fatalf("after limbo vanish: %+v", rc)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// CheckInvariants must actually reject corrupted states.
func TestCheckInvariantsDetectsViolations(t *testing.T) {
	fresh := func() *Coordinator {
		c, _ := localCluster(t, DefaultCoordinatorConfig(), []*ScriptedOwner{quietOwner(t)})
		if _, err := c.Submit(30, 8); err != nil {
			t.Fatal(err)
		}
		return c
	}

	c := fresh()
	c.completedIDs[0] = true // completed yet still queued
	if err := c.CheckInvariants(); err == nil {
		t.Error("completed-but-tracked state accepted")
	}

	c = fresh()
	c.queue = nil // lost
	if err := c.CheckInvariants(); err == nil {
		t.Error("lost-job state accepted")
	}

	c = fresh()
	c.hosted[agentName(0)] = 0 // queued AND hosted
	if err := c.CheckInvariants(); err == nil {
		t.Error("double-tracked state accepted")
	}

	c = fresh()
	c.completedIDs[0] = true
	c.queue = nil
	c.completed = []CompletedJob{{Job: Job{ID: 0}}, {Job: Job{ID: 0}}}
	if err := c.CheckInvariants(); err == nil {
		t.Error("double-completion accepted")
	}
}

func TestNewCoordinatorRejectsBadConfig(t *testing.T) {
	a := LocalClient{Agent: NewAgent("w1", quietOwner(t), 64)}
	if _, err := NewCoordinator(DefaultCoordinatorConfig(), nil); err == nil {
		t.Error("no agents accepted")
	}
	cfg := DefaultCoordinatorConfig()
	cfg.PauseTime = -1
	if _, err := NewCoordinator(cfg, []AgentClient{a}); err == nil {
		t.Error("negative pause time accepted")
	}
	cfg = DefaultCoordinatorConfig()
	cfg.Policy = core.FractionalShare
	if _, err := NewCoordinator(cfg, []AgentClient{a}); err == nil {
		t.Error("FS accepted, though agents have no fractional-share model")
	}
	cfg = DefaultCoordinatorConfig()
	cfg.Health = core.HealthPolicy{SuspectAfter: 5, DeadAfter: 2}
	if _, err := NewCoordinator(cfg, []AgentClient{a}); err == nil {
		t.Error("invalid health policy accepted")
	}
	b := LocalClient{Agent: NewAgent("w1", quietOwner(t), 64)}
	if _, err := NewCoordinator(DefaultCoordinatorConfig(), []AgentClient{a, b}); err == nil {
		t.Error("duplicate agent names accepted")
	}
	if got := mustCoordinator(t, a).AgentHealth("nobody"); got != core.Dead {
		t.Errorf("unknown agent health = %v, want dead", got)
	}
}

func mustCoordinator(t *testing.T, clients ...AgentClient) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(DefaultCoordinatorConfig(), clients)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRetryBackoff(t *testing.T) {
	rng := stats.NewRNG(1)
	rc := RetryConfig{MaxAttempts: 3}
	if d := rc.backoff(1, rng); d != 0 {
		t.Errorf("zero BaseDelay backoff = %v", d)
	}
	rc = RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	for attempt, nominal := range map[int]time.Duration{
		1: time.Millisecond,
		2: 2 * time.Millisecond,
		3: 2 * time.Millisecond, // 4ms capped at MaxDelay
	} {
		for i := 0; i < 50; i++ {
			d := rc.backoff(attempt, rng)
			if d < nominal/2 || d >= nominal {
				t.Fatalf("backoff(%d) = %v outside [%v, %v)", attempt, d, nominal/2, nominal)
			}
		}
	}
	if got := (RetryConfig{MaxAttempts: 0}).attempts(); got != 1 {
		t.Errorf("attempts() with MaxAttempts 0 = %d, want 1", got)
	}
}

func TestInvokeRetrySleepsAndBounds(t *testing.T) {
	rng := stats.NewRNG(1)
	counters := &FaultCounters{}
	calls := 0
	_, err := invokeRetry(RetryConfig{MaxAttempts: 3, BaseDelay: time.Microsecond}, rng, counters,
		func() (response, error) { calls++; return response{}, ErrAgentTimeout })
	if !errors.Is(err, ErrAgentTimeout) || calls != 3 {
		t.Errorf("exhausted retry: calls %d err %v", calls, err)
	}
	if counters.Retries != 2 || counters.Attempts != 3 {
		t.Errorf("counters = %+v", counters)
	}
	// A non-transient error stops the loop immediately.
	calls = 0
	rejection := errors.New("agent said no")
	_, err = invokeRetry(RetryConfig{}, rng, nil,
		func() (response, error) { calls++; return response{}, rejection })
	if !errors.Is(err, rejection) || calls != 1 {
		t.Errorf("rejection retried: calls %d err %v", calls, err)
	}
}

func TestClientCloseNoops(t *testing.T) {
	a := NewAgent("w1", quietOwner(t), 64)
	if err := (LocalClient{Agent: a}).Close(); err != nil {
		t.Error(err)
	}
	if err := NewFaultClient(a, nil, DefaultRetryConfig(), nil).Close(); err != nil {
		t.Error(err)
	}
}

// Pause-and-Migrate under faults: lost Pause replies are skipped and
// retried by the next policy pass, pauses eventually stick, and the job
// resumes in place when the owner goes idle again.
func TestPauseResumeUnderFaults(t *testing.T) {
	owner, err := NewScriptedOwner([]OwnerPhase{
		{Duration: 20, Util: 0.02, FreeMB: 40},
		{Duration: 30, Util: 0.5, Keyboard: true, FreeMB: 40},
		{Duration: 1e6, Util: 0.02, FreeMB: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := newScriptInjector(func(target string, kind reqKind, n, kn int) FaultAction {
		if kind == reqPause && kn < DefaultRetryConfig().MaxAttempts {
			return FaultDropReply // the first logical Pause fails all attempts
		}
		return FaultNone
	})
	cfg := DefaultCoordinatorConfig()
	cfg.Policy = core.PauseAndMigrate
	// Single agent: nowhere to migrate, so the job pauses in place, and
	// when the pause expires with the owner still busy it is evicted to
	// the queue and placed again once the owner leaves.
	c, _ := newFaultCluster(t, cfg, []*ScriptedOwner{owner}, inj, &FaultCounters{})
	if _, err := c.Submit(60, 8); err != nil {
		t.Fatal(err)
	}
	stepChecked(t, c, 400, 1)
	if len(c.Completed()) != 1 {
		t.Fatalf("completed %d of 1 jobs", len(c.Completed()))
	}
	// Progress pauses during the owner's episode: completion must come
	// after the busy window plus the paused time (20s head start + 30s
	// pause + remaining 40s), i.e. well past the no-pause finish time.
	if at := c.Completed()[0].CompletedAt; at < 90 {
		t.Errorf("job finished at %g despite the paused window", at)
	}
}

func TestScriptedOwnerNegativeTime(t *testing.T) {
	o := quietOwner(t)
	if u := o.UtilizationAt(-5); u != 0.02 {
		t.Errorf("UtilizationAt(-5) = %g", u)
	}
}
