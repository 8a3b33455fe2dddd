package runtime

import (
	"math"
	"testing"

	"lingerlonger/internal/core"
)

// quietOwner is always idle with plentiful memory.
func quietOwner(t *testing.T) *ScriptedOwner {
	t.Helper()
	o, err := NewScriptedOwner([]OwnerPhase{{Duration: 3600, Util: 0.02, FreeMB: 40}})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// busyAfter returns an owner idle for lead seconds, then persistently
// active at util.
func busyAfter(t *testing.T, lead, util float64) *ScriptedOwner {
	t.Helper()
	o, err := NewScriptedOwner([]OwnerPhase{
		{Duration: lead, Util: 0.02, FreeMB: 40},
		{Duration: 1e6, Util: util, Keyboard: true, FreeMB: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// busyBetween returns an owner idle for lead seconds, active at util for
// busy seconds, then idle again (recruitable 60 s after the activity).
func busyBetween(t *testing.T, lead, busy, util float64) *ScriptedOwner {
	t.Helper()
	o, err := NewScriptedOwner([]OwnerPhase{
		{Duration: lead, Util: 0.02, FreeMB: 40},
		{Duration: busy, Util: util, Keyboard: true, FreeMB: 40},
		{Duration: 1e6, Util: 0.02, FreeMB: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestScriptedOwnerValidation(t *testing.T) {
	if _, err := NewScriptedOwner(nil); err == nil {
		t.Error("empty script accepted")
	}
	if _, err := NewScriptedOwner([]OwnerPhase{{Duration: 0}}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := NewScriptedOwner([]OwnerPhase{{Duration: 1, Util: 2}}); err == nil {
		t.Error("utilization > 1 accepted")
	}
	if _, err := NewScriptedOwner([]OwnerPhase{{Duration: 1, FreeMB: -1}}); err == nil {
		t.Error("negative memory accepted")
	}
}

func TestScriptedOwnerRecruitment(t *testing.T) {
	o := busyAfter(t, 120, 0.5)
	if !o.IdleAt(100) {
		t.Error("owner should be idle during the lead")
	}
	if o.IdleAt(125) {
		t.Error("owner should be non-idle once active")
	}
	// Back within the recruitment delay after activity started at 120: a
	// time like 121 has activity in its trailing window.
	if o.IdleAt(121) {
		t.Error("recruitment threshold should mark 121 non-idle")
	}
}

func TestScriptedOwnerCycles(t *testing.T) {
	o, err := NewScriptedOwner([]OwnerPhase{
		{Duration: 10, Util: 0.05, FreeMB: 40},
		{Duration: 10, Util: 0.80, FreeMB: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.UtilizationAt(5); got != 0.05 {
		t.Errorf("UtilizationAt(5) = %g", got)
	}
	if got := o.UtilizationAt(15); got != 0.80 {
		t.Errorf("UtilizationAt(15) = %g", got)
	}
	if got := o.UtilizationAt(25); got != 0.05 { // wrapped
		t.Errorf("UtilizationAt(25) = %g, want wrap", got)
	}
}

func TestAgentRunsJobAtLowPriority(t *testing.T) {
	a := NewAgent("w1", quietOwner(t), 64)
	if err := a.Assign(&Job{ID: 1, DemandS: 10, SizeMB: 8}); err != nil {
		t.Fatal(err)
	}
	var done bool
	for i := 0; i < 20 && !done; i++ {
		st, err := a.Tick(1)
		if err != nil {
			t.Fatal(err)
		}
		done = st.JobDone
	}
	if !done {
		t.Fatal("job did not complete on an idle agent")
	}
	// On a 2% loaded owner, 10 CPU-s take ~10.2 wall seconds.
	if a.Now() < 10 || a.Now() > 13 {
		t.Errorf("completion at %g, want ~10.2", a.Now())
	}
	if got := a.DrainCompleted(); len(got) != 1 || got[0].ID != 1 {
		t.Errorf("DrainCompleted() = %+v", got)
	}
}

func TestAgentProgressSlowsUnderOwnerLoad(t *testing.T) {
	a := NewAgent("w1", busyAfter(t, 0.5, 0.75), 64)
	if err := a.Assign(&Job{ID: 1, DemandS: 5, SizeMB: 8}); err != nil {
		t.Fatal(err)
	}
	var progress float64
	for i := 0; i < 10; i++ {
		st, err := a.Tick(1)
		if err != nil {
			t.Fatal(err)
		}
		progress = st.JobProgress
	}
	// 10 s at ~25% availability: ~2.5-3 CPU-s of progress.
	if progress < 1.5 || progress > 4.5 {
		t.Errorf("progress after 10 s at 75%% owner load = %g, want ~2.5", progress)
	}
}

func TestAgentAssignRejectsDoubleAndOversized(t *testing.T) {
	a := NewAgent("w1", quietOwner(t), 64)
	if err := a.Assign(&Job{ID: 1, DemandS: 100, SizeMB: 8}); err != nil {
		t.Fatal(err)
	}
	if err := a.Assign(&Job{ID: 2, DemandS: 100, SizeMB: 8}); err == nil {
		t.Error("second job accepted")
	}
	b := NewAgent("w2", quietOwner(t), 64)
	if err := b.Assign(&Job{ID: 3, DemandS: 100, SizeMB: 60}); err == nil {
		t.Error("oversized job accepted (owner holds 24 MB)")
	}
	if err := b.Assign(&Job{ID: 4, DemandS: 0, SizeMB: 8}); err == nil {
		t.Error("zero-demand job accepted")
	}
}

func TestAgentRevokePreservesProgress(t *testing.T) {
	a := NewAgent("w1", quietOwner(t), 64)
	if err := a.Assign(&Job{ID: 7, DemandS: 100, SizeMB: 8}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := a.Tick(1); err != nil {
			t.Fatal(err)
		}
	}
	j, err := a.Revoke(7)
	if err != nil {
		t.Fatal(err)
	}
	if j.Progress < 4.5 || j.Progress > 5 {
		t.Errorf("revoked progress = %g, want ~4.9", j.Progress)
	}
	if a.HasJob() {
		t.Error("agent still hosts a job after revoke")
	}
	// The surrendered state stays staged until acknowledged, so a retried
	// revoke (lost reply) returns the same state instead of failing.
	again, err := a.Revoke(7)
	if err != nil {
		t.Fatalf("retried revoke failed: %v", err)
	}
	if again.ID != j.ID || again.Progress != j.Progress {
		t.Errorf("retried revoke = %+v, want %+v", again, j)
	}
	if err := a.Ack([]int{7}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Revoke(7); err == nil {
		t.Error("revoke after acknowledgment accepted")
	}
}

func TestAgentPauseStopsProgress(t *testing.T) {
	a := NewAgent("w1", quietOwner(t), 64)
	if err := a.Assign(&Job{ID: 3, DemandS: 100, SizeMB: 8}); err != nil {
		t.Fatal(err)
	}
	if err := a.Pause(3, true); err != nil {
		t.Fatal(err)
	}
	st, err := a.Tick(5)
	if err != nil {
		t.Fatal(err)
	}
	if st.JobProgress != 0 {
		t.Errorf("paused job progressed to %g", st.JobProgress)
	}
	if err := a.Pause(3, false); err != nil {
		t.Fatal(err)
	}
	st, err = a.Tick(5)
	if err != nil {
		t.Fatal(err)
	}
	if st.JobProgress <= 0 {
		t.Error("resumed job made no progress")
	}
	if err := a.Pause(99, true); err == nil {
		t.Error("pausing unknown job accepted")
	}
}

func TestAgentTickRejectsBadDt(t *testing.T) {
	a := NewAgent("w1", quietOwner(t), 64)
	if _, err := a.Tick(0); err == nil {
		t.Error("zero dt accepted")
	}
}

// newLocalCluster builds a coordinator over in-process agents.
func newLocalCluster(t *testing.T, cfg CoordinatorConfig, owners []*ScriptedOwner) *Coordinator {
	t.Helper()
	clients := make([]AgentClient, len(owners))
	for i, o := range owners {
		clients[i] = LocalClient{Agent: NewAgent(agentName(i), o, 64)}
	}
	c, err := NewCoordinator(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func agentName(i int) string { return string(rune('a'+i)) + "-station" }

func TestCoordinatorCompletesJobs(t *testing.T) {
	cfg := DefaultCoordinatorConfig()
	c := newLocalCluster(t, cfg, []*ScriptedOwner{quietOwner(t), quietOwner(t)})
	for i := 0; i < 3; i++ {
		if _, err := c.Submit(20, 8); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100 && len(c.Completed()) < 3; i++ {
		if err := c.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.Completed()) != 3 {
		t.Fatalf("completed %d of 3 jobs", len(c.Completed()))
	}
	if c.QueueLen() != 0 {
		t.Errorf("queue not drained: %d", c.QueueLen())
	}
}

func TestCoordinatorIEEvictsImmediately(t *testing.T) {
	cfg := DefaultCoordinatorConfig()
	cfg.Policy = core.ImmediateEviction
	// Agent a turns busy after 30 s; agent b stays idle as the spare.
	// With equal initial utilizations the deterministic tie-break places
	// the single job on a (first in sorted name order).
	c := newLocalCluster(t, cfg, []*ScriptedOwner{busyAfter(t, 30, 0.5), quietOwner(t)})
	if _, err := c.Submit(500, 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := c.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	if c.Migrations() != 1 {
		t.Errorf("IE migrations = %d, want exactly 1 (eviction from the busy node)", c.Migrations())
	}
}

// evictedWithoutSpare runs one 100-s job on a single agent whose owner is
// busy from 30 s to 90 s (idle again from ~150 s) and returns the instant
// the job first sat in the queue after it started.
func evictedWithoutSpare(t *testing.T, cfg CoordinatorConfig) float64 {
	t.Helper()
	c := newLocalCluster(t, cfg, []*ScriptedOwner{busyBetween(t, 30, 60, 0.5)})
	if _, err := c.Submit(100, 8); err != nil {
		t.Fatal(err)
	}
	evictedAt, carried := -1.0, 0.0
	for i := 0; i < 400 && len(c.Completed()) < 1; i++ {
		if err := c.Step(1); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if evictedAt < 0 && c.Now() > 1 && c.QueueLen() == 1 {
			evictedAt, carried = c.Now(), c.queue[0].Progress
		}
	}
	if len(c.Completed()) != 1 {
		t.Fatalf("completed %d of 1 jobs", len(c.Completed()))
	}
	if c.Migrations() != 0 {
		t.Errorf("migrations = %d with no spare agent", c.Migrations())
	}
	if evictedAt < 0 {
		t.Fatal("the job was never evicted back to the queue")
	}
	// ~29 CPU-s accrue before the owner returns at 30 s; the evicted job
	// must carry them, so it finishes ~29 s sooner than a restart would.
	if carried < 25 {
		t.Errorf("evicted job carried progress %g, want the ~29 s done before the owner returned", carried)
	}
	done := c.Completed()[0]
	if done.CompletedAt < 150 || done.CompletedAt > 150+100-20 {
		t.Errorf("job completed at %g, want after the owner leaves (~150 s) with its progress kept", done.CompletedAt)
	}
	t.Logf("evicted at %g s carrying %g CPU-s; completed at %g s", evictedAt, carried, done.CompletedAt)
	return evictedAt
}

// IE with no idle spare evicts the job to the queue at once, as the
// simulator does, instead of leaving it on the busy node.
func TestCoordinatorIEEvictsWithoutSpare(t *testing.T) {
	cfg := DefaultCoordinatorConfig()
	cfg.Policy = core.ImmediateEviction
	if at := evictedWithoutSpare(t, cfg); at < 30 || at > 35 {
		t.Errorf("IE evicted at %g s, want as the owner returns (~31 s)", at)
	}
}

// PM with no idle spare pauses the job, then evicts it to the queue once
// the pause expires, instead of staying paused until the owner leaves.
func TestCoordinatorPMEvictsWhenPauseExpires(t *testing.T) {
	cfg := DefaultCoordinatorConfig()
	cfg.Policy = core.PauseAndMigrate
	cfg.PauseTime = 30
	if at := evictedWithoutSpare(t, cfg); at < 60 || at > 65 {
		t.Errorf("PM evicted at %g s, want once the 30 s pause expires (~61 s)", at)
	}
}

func TestCoordinatorLFNeverMigrates(t *testing.T) {
	cfg := DefaultCoordinatorConfig()
	cfg.Policy = core.LingerForever
	c := newLocalCluster(t, cfg, []*ScriptedOwner{busyAfter(t, 10, 0.5), quietOwner(t)})
	if _, err := c.Submit(100, 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := c.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	if c.Migrations() != 0 {
		t.Errorf("LF migrated %d times", c.Migrations())
	}
}

func TestCoordinatorLLLingersBeforeMigrating(t *testing.T) {
	cfg := DefaultCoordinatorConfig()
	// Tmigr for 8 MB ~ 22.3 s; with h=0.5, l~0.02: Tlingr ~ 45.6 s.
	c := newLocalCluster(t, cfg, []*ScriptedOwner{busyAfter(t, 30, 0.5), quietOwner(t)})
	if _, err := c.Submit(2000, 8); err != nil {
		t.Fatal(err)
	}
	migratedAt := -1.0
	for i := 0; i < 200; i++ {
		if err := c.Step(1); err != nil {
			t.Fatal(err)
		}
		if c.Migrations() > 0 && migratedAt < 0 {
			migratedAt = c.Now()
		}
	}
	if migratedAt < 0 {
		t.Fatal("LL never migrated off the persistently busy node")
	}
	// The episode starts at ~30 s; the 2x-age rule needs ~45 s of episode
	// age before migrating, so migration should not happen before ~70 s.
	if migratedAt < 60 {
		t.Errorf("LL migrated at %g s — before the linger duration elapsed", migratedAt)
	}
	if migratedAt > 120 {
		t.Errorf("LL migrated only at %g s — far too late", migratedAt)
	}
}

func TestCoordinatorPMPausesThenMigrates(t *testing.T) {
	cfg := DefaultCoordinatorConfig()
	cfg.Policy = core.PauseAndMigrate
	cfg.PauseTime = 10
	c := newLocalCluster(t, cfg, []*ScriptedOwner{busyAfter(t, 30, 0.5), quietOwner(t)})
	if _, err := c.Submit(2000, 8); err != nil {
		t.Fatal(err)
	}
	migratedAt := -1.0
	for i := 0; i < 120; i++ {
		if err := c.Step(1); err != nil {
			t.Fatal(err)
		}
		if c.Migrations() > 0 && migratedAt < 0 {
			migratedAt = c.Now()
		}
	}
	if migratedAt < 0 {
		t.Fatal("PM never migrated")
	}
	// Busy at ~30 s + 10 s pause: migration at ~40-45 s.
	if migratedAt < 38 || migratedAt > 60 {
		t.Errorf("PM migrated at %g s, want ~40-45", migratedAt)
	}
}

func TestMigrationPreservesProgress(t *testing.T) {
	cfg := DefaultCoordinatorConfig()
	cfg.Policy = core.ImmediateEviction
	c := newLocalCluster(t, cfg, []*ScriptedOwner{busyAfter(t, 50, 0.9), quietOwner(t)})
	if _, err := c.Submit(200, 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400 && len(c.Completed()) < 1; i++ {
		if err := c.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.Completed()) != 1 {
		t.Fatalf("completed %d of 1 jobs", len(c.Completed()))
	}
	// Total virtual time must account for both demands plus the migration
	// gap — if progress were lost, completion would take ~200 s longer.
	for _, done := range c.Completed() {
		if done.Job.Progress < 200-1e-6 {
			t.Errorf("job %d completed with progress %g < 200", done.Job.ID, done.Job.Progress)
		}
		wall := done.CompletedAt
		if wall > 330 {
			t.Errorf("job %d took %g s; progress was likely lost in migration", done.Job.ID, wall)
		}
	}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(DefaultCoordinatorConfig(), nil); err == nil {
		t.Error("no agents accepted")
	}
	a := LocalClient{Agent: NewAgent("same", quietOwner(t), 64)}
	b := LocalClient{Agent: NewAgent("same", quietOwner(t), 64)}
	if _, err := NewCoordinator(DefaultCoordinatorConfig(), []AgentClient{a, b}); err == nil {
		t.Error("duplicate names accepted")
	}
	cfg := DefaultCoordinatorConfig()
	cfg.PauseTime = -1
	if _, err := NewCoordinator(cfg, []AgentClient{a}); err == nil {
		t.Error("negative pause accepted")
	}
	c, err := NewCoordinator(DefaultCoordinatorConfig(), []AgentClient{a})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Step(0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := c.Submit(-1, 8); err == nil {
		t.Error("negative demand accepted")
	}
}

func TestJobValidateAndHelpers(t *testing.T) {
	j := &Job{ID: 1, DemandS: 10, SizeMB: 8, Progress: 4}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if j.Done() {
		t.Error("job with 4/10 progress reported done")
	}
	if got := j.Remaining(); math.Abs(got-6) > 1e-12 {
		t.Errorf("Remaining() = %g", got)
	}
	j.Progress = 11
	if !j.Done() || j.Remaining() != 0 {
		t.Error("overshot job not done")
	}
	if (&Job{DemandS: 1, SizeMB: -1}).Validate() == nil {
		t.Error("negative size accepted")
	}
	if (&Job{DemandS: 1, Progress: -1}).Validate() == nil {
		t.Error("negative progress accepted")
	}
}
