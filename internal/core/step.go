package core

import "fmt"

// Phase is where a hosted foreign job stands in its host owner's cycle.
type Phase int

// A PhaseRunning job runs at full speed on an idle host, so a busy owner
// at a decision point has just returned. A PhaseLingering job runs at
// background priority beside a busy owner; a PhasePaused one is suspended
// in place (PM) while the owner is busy.
const (
	PhaseRunning Phase = iota
	PhaseLingering
	PhasePaused
)

// Action is the step's verdict for one hosted job.
type Action int

// The actions. After Linger the caller steps the job again as
// PhaseLingering, so the LL deadline is checked at the same decision point.
const (
	Stay    Action = iota // leave the job as it is
	Linger                // run on at background priority through the episode
	Pause                 // suspend in place for the PM pause interval
	Resume                // the owner left: back to full speed
	Migrate               // move to the best idle destination
	Evict                 // revoke to the queue, progress intact: no idle destination is free
)

// Situation is everything the step reads about one hosted job.
type Situation struct {
	Policy       Policy
	Phase        Phase
	OwnerIdle    bool // the host's owner is idle at this decision point
	PauseExpired bool // PhasePaused only: the PM pause interval has elapsed

	// The destination fields are read only when NeedsDest is true, and
	// the rest only when HasDest is.
	HasDest   bool    // an idle destination is free
	H         float64 // mean owner utilization over the episode; above 1 counts as 1
	L         float64 // the best idle destination's utilization; above 1 counts as 1
	Remaining float64 // predicted remainder of the episode, seconds
	Tmigr     float64 // the job's migration cost, seconds

	LingerMultiplier float64 // scales the LL deadline; 0 means 1
}

// NeedsDest reports whether Step's answer depends on the best idle
// destination: IE when the owner returns, LL while lingering, and PM once
// its pause has expired.
func (s Situation) NeedsDest() bool {
	if s.OwnerIdle {
		return false
	}
	switch s.Phase {
	case PhaseRunning:
		return s.Policy == ImmediateEviction
	case PhaseLingering:
		return s.Policy == LingerLonger
	case PhasePaused:
		return s.PauseExpired
	}
	return false
}

// Step is the paper's decision rule in one place: the cluster simulator
// and the §7 coordinator step every hosted job at each decision point and
// carry out the returned action. It is pure and allocation-free.
//
//   - When the owner returns, IE leaves at once, PM pauses, and LL, LF and
//     FS linger.
//   - While the owner stays, LL migrates once the predicted remainder of
//     the episode reaches the linger deadline ((1-l)/(h-l))*Tmigr; LF, FS
//     and a job of another policy that landed on a busy node stay.
//   - A paused job stays until its pause expires, then leaves.
//   - Once the owner is idle, a lingering or paused job resumes.
//
// Leaving means migrating when an idle destination is free and evicting
// to the queue when none is. An unknown policy or phase panics.
func Step(s Situation) Action {
	switch {
	case s.OwnerIdle && s.Phase == PhaseRunning:
		return Stay
	case s.OwnerIdle:
		return Resume
	}
	switch s.Phase {
	case PhaseRunning:
		switch s.Policy {
		case ImmediateEviction:
			return s.leave()
		case PauseAndMigrate:
			return Pause
		case LingerLonger, LingerForever, FractionalShare:
			return Linger
		}
		panic("core: unknown policy " + s.Policy.String())
	case PhaseLingering:
		if s.Policy == LingerLonger && s.HasDest && s.Remaining >= s.lingerDeadline() {
			return Migrate
		}
		return Stay
	case PhasePaused:
		if s.PauseExpired {
			return s.leave()
		}
		return Stay
	}
	panic(fmt.Sprintf("core: unknown phase %d", int(s.Phase)))
}

// leave migrates when an idle destination is free and evicts otherwise.
func (s Situation) leave() Action {
	if s.HasDest {
		return Migrate
	}
	return Evict
}

// lingerDeadline is the scaled LL linger duration for the situation.
func (s Situation) lingerDeadline() float64 {
	h, l := min(s.H, 1), min(s.L, 1)
	mult := s.LingerMultiplier
	if mult == 0 {
		mult = 1
	}
	return mult * LingerDuration(h, l, s.Tmigr)
}
