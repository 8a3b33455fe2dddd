// Package runtime is the prototype counterpart of the simulator: a small
// distributed cycle-stealing system in the architecture the paper's §7
// describes ("we are implementing the prototype ... the strict
// priority-based scheduler and page allocation module have been
// developed").
//
// A Coordinator owns the foreign-job queue and the scheduling policy; one
// Agent per workstation executes at most one foreign job at strictly lower
// priority than the owner's workload and reports its status every tick.
// Migration moves the job's serialized state (encoding/gob) from the
// source agent through the coordinator to the destination agent, paying
// the §2 migration cost in virtual time.
//
// Time is virtual and driven synchronously by Coordinator.Step, so runs
// are deterministic — including over the TCP transport (transport.go),
// where every agent runs behind a gob request/response protocol on a real
// socket. The policy decision is the simulator's: each step the
// coordinator hands every hosted job to core.Step and carries out the
// action it returns, with the paper's unscaled linger deadline and
// 2x-age rule. The coordinator runs LL, LF, IE and PM; agents model no
// fractional share, so it rejects FS.
package runtime

import (
	"fmt"
	"math"
)

// Job is one foreign compute job. The struct is the unit of migration: it
// is gob-encoded when moved between agents, so Progress carries over.
type Job struct {
	ID       int
	DemandS  float64 // CPU seconds required
	SizeMB   float64 // process image size (drives migration cost)
	Progress float64 // CPU seconds completed so far

	SubmittedAt float64 // virtual time of submission
}

// Done reports whether the job has received its full demand.
func (j *Job) Done() bool { return j.Progress >= j.DemandS-1e-9 }

// Remaining returns the CPU seconds still owed.
func (j *Job) Remaining() float64 {
	if r := j.DemandS - j.Progress; r > 0 {
		return r
	}
	return 0
}

// Validate checks job sanity.
func (j *Job) Validate() error {
	if j.DemandS <= 0 {
		return fmt.Errorf("runtime: job %d demand %g", j.ID, j.DemandS)
	}
	if j.SizeMB < 0 {
		return fmt.Errorf("runtime: job %d size %g", j.ID, j.SizeMB)
	}
	if j.Progress < 0 || math.IsNaN(j.Progress) {
		return fmt.Errorf("runtime: job %d progress %g", j.ID, j.Progress)
	}
	return nil
}

// OwnerSource supplies the owner's workload on one workstation: CPU
// utilization, recruitment-threshold idle state, and free memory, all as
// functions of virtual time. trace.View satisfies the first two; the
// scripted owner in this package satisfies all three.
type OwnerSource interface {
	UtilizationAt(t float64) float64
	IdleAt(t float64) bool
	FreeMBAt(t float64) float64
}

// OwnerPhase is one segment of a scripted owner's day.
type OwnerPhase struct {
	Duration float64 // seconds
	Util     float64 // CPU utilization during the phase
	Keyboard bool    // keyboard activity during the phase
	FreeMB   float64 // free memory during the phase
}

// ScriptedOwner cycles through a fixed phase list forever. Idle state
// follows the paper's recruitment threshold: a phase time is idle when
// utilization stays below 10% and the keyboard untouched for the trailing
// 60 seconds.
type ScriptedOwner struct {
	Phases []OwnerPhase
	total  float64
}

// NewScriptedOwner validates and returns a scripted owner.
func NewScriptedOwner(phases []OwnerPhase) (*ScriptedOwner, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("runtime: empty owner script")
	}
	total := 0.0
	for i, p := range phases {
		if p.Duration <= 0 {
			return nil, fmt.Errorf("runtime: phase %d duration %g", i, p.Duration)
		}
		if p.Util < 0 || p.Util > 1 {
			return nil, fmt.Errorf("runtime: phase %d utilization %g", i, p.Util)
		}
		if p.FreeMB < 0 {
			return nil, fmt.Errorf("runtime: phase %d free memory %g", i, p.FreeMB)
		}
		total += p.Duration
	}
	return &ScriptedOwner{Phases: phases, total: total}, nil
}

// phaseAt returns the phase covering virtual time t (cyclic).
func (o *ScriptedOwner) phaseAt(t float64) OwnerPhase {
	t = math.Mod(t, o.total)
	if t < 0 {
		t += o.total
	}
	for _, p := range o.Phases {
		if t < p.Duration {
			return p
		}
		t -= p.Duration
	}
	return o.Phases[len(o.Phases)-1]
}

// UtilizationAt returns the scripted CPU utilization at t.
func (o *ScriptedOwner) UtilizationAt(t float64) float64 { return o.phaseAt(t).Util }

// FreeMBAt returns the scripted free memory at t.
func (o *ScriptedOwner) FreeMBAt(t float64) float64 { return o.phaseAt(t).FreeMB }

// activeAt reports owner activity (keyboard or CPU >= 10%) at t.
func (o *ScriptedOwner) activeAt(t float64) bool {
	p := o.phaseAt(t)
	return p.Keyboard || p.Util >= 0.10
}

// IdleAt applies the recruitment threshold: idle iff no activity in the
// trailing 60 seconds (checked at 2-second granularity).
func (o *ScriptedOwner) IdleAt(t float64) bool {
	for back := 0.0; back <= 60; back += 2 {
		at := t - back
		if at < 0 {
			break
		}
		if o.activeAt(at) {
			return false
		}
	}
	return true
}

// AgentStatus is one tick's report from an agent to the coordinator.
type AgentStatus struct {
	Name string

	Idle   bool
	Util   float64
	FreeMB float64

	// Episode tracking for the linger decision.
	EpisodeAge  float64 // seconds since the node turned non-idle (0 when idle)
	EpisodeUtil float64 // mean utilization over the episode

	// Job state.
	JobID       int // -1 when no job is hosted
	JobProgress float64
	JobDone     bool

	// Fault-tolerance staging, re-reported every tick until the
	// coordinator acknowledges (Ack): jobs finished on this agent, and job
	// state surrendered by a Revoke whose reply may have been lost. The
	// re-reporting makes completion and revocation survive dropped replies
	// — the coordinator deduplicates by job ID.
	Finished []Job // finished since the last acknowledged tick
	Revoked  []Job // revoked state awaiting acknowledgment, sorted by ID
}
