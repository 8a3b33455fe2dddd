package core

import (
	"testing"
)

var actionNames = [...]string{"stay", "linger", "pause", "resume", "migrate", "evict"}

func (a Action) name() string { return actionNames[a] }

// busy is a situation with the owner busy, an LL deadline long past
// (h=0.9 against an idle l=0, a remainder of 1e12 s), and the paper's
// 8 MB job and migration path.
func busy(p Policy, ph Phase, dest, expired bool) Situation {
	return Situation{
		Policy: p, Phase: ph, PauseExpired: expired,
		HasDest: dest, H: 0.9, L: 0, Remaining: 1e12,
		Tmigr: DefaultMigrationCost().Time(8),
	}
}

// Every cell of policy x phase x destination x pause state, with the owner
// busy and then idle.
func TestStepPolicyTable(t *testing.T) {
	phases := []Phase{PhaseRunning, PhaseLingering, PhasePaused}
	// want[policy][phase] lists the busy-owner action for (no dest, pause
	// running), (no dest, pause expired), (dest, pause running) and
	// (dest, pause expired).
	leaveOnExpiry := [4]Action{Stay, Evict, Stay, Migrate}
	want := map[Policy][3][4]Action{
		LingerLonger:      {{Linger, Linger, Linger, Linger}, {Stay, Stay, Migrate, Migrate}, leaveOnExpiry},
		LingerForever:     {{Linger, Linger, Linger, Linger}, {Stay, Stay, Stay, Stay}, leaveOnExpiry},
		ImmediateEviction: {{Evict, Evict, Migrate, Migrate}, {Stay, Stay, Stay, Stay}, leaveOnExpiry},
		PauseAndMigrate:   {{Pause, Pause, Pause, Pause}, {Stay, Stay, Stay, Stay}, leaveOnExpiry},
		FractionalShare:   {{Linger, Linger, Linger, Linger}, {Stay, Stay, Stay, Stay}, leaveOnExpiry},
	}
	for p, byPhase := range want {
		for pi, ph := range phases {
			for cell := 0; cell < 4; cell++ {
				dest, expired := cell >= 2, cell%2 == 1
				sit := busy(p, ph, dest, expired)
				if got := Step(sit); got != byPhase[pi][cell] {
					t.Errorf("%v phase %d dest=%v expired=%v: got %s, want %s",
						p, ph, dest, expired, got.name(), byPhase[pi][cell].name())
				}
				// NeedsDest is exact: the answer depends on the
				// destination precisely where NeedsDest says so.
				other := sit
				other.HasDest = !dest
				if depends := Step(other) != Step(sit); depends && !sit.NeedsDest() {
					t.Errorf("%v phase %d expired=%v: answer depends on the destination but NeedsDest is false", p, ph, expired)
				}
				if !dest && sit.NeedsDest() && Step(other) == Step(sit) {
					t.Errorf("%v phase %d expired=%v: NeedsDest is true but the destination changes nothing", p, ph, expired)
				}

				sit.OwnerIdle = true
				idleWant := Resume
				if ph == PhaseRunning {
					idleWant = Stay
				}
				if got := Step(sit); got != idleWant {
					t.Errorf("%v phase %d idle owner: got %s, want %s", p, ph, got.name(), idleWant.name())
				}
				if sit.NeedsDest() {
					t.Errorf("%v phase %d: NeedsDest with an idle owner", p, ph)
				}
			}
		}
	}
}

// The LL deadline is the paper's Tlingr = ((1-l)/(h-l))*Tmigr, scaled by
// the linger multiplier, against the predicted remainder.
func TestStepLingerDeadline(t *testing.T) {
	tmigr := DefaultMigrationCost().Time(8)
	tl := LingerDuration(0.2, 0, tmigr)
	at := func(remaining, h, l, mult float64) Action {
		sit := busy(LingerLonger, PhaseLingering, true, false)
		sit.H, sit.L, sit.Remaining, sit.LingerMultiplier = h, l, remaining, mult
		return Step(sit)
	}
	for _, c := range []struct {
		name            string
		remaining, h, l float64
		mult            float64
		want            Action
	}{
		{"before the deadline", tl * 0.5, 0.2, 0, 0, Stay},
		{"past the deadline", tl * 1.01, 0.2, 0, 0, Migrate},
		{"multiplier 1 is the default", tl * 1.01, 0.2, 0, 1, Migrate},
		{"doubled deadline not reached", tl * 1.5, 0.2, 0, 2, Stay},
		{"doubled deadline reached", tl * 2.01, 0.2, 0, 2, Migrate},
		{"destination no better", 1e12, 0.2, 0.5, 0, Stay},
		{"busier than full counts as full", tmigr * 1.01, 1.5, 0, 0, Migrate},
		{"fuller than full destination", 1e12, 0.9, 1.2, 0, Stay},
	} {
		if got := at(c.remaining, c.h, c.l, c.mult); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got.name(), c.want.name())
		}
	}
}

func TestStepPanicsOnUnknownPolicyOrPhase(t *testing.T) {
	for _, sit := range []Situation{
		{Policy: Policy(42), Phase: PhaseRunning},
		{Policy: LingerLonger, Phase: Phase(9)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Step(%+v) did not panic", sit)
				}
			}()
			Step(sit)
		}()
	}
}

func TestStepAllocatesNothing(t *testing.T) {
	sit := busy(LingerLonger, PhaseLingering, true, false)
	var sink Action
	allocs := testing.AllocsPerRun(1000, func() {
		if sit.NeedsDest() {
			sink = Step(sit)
		}
	})
	if allocs != 0 {
		t.Errorf("Step allocates %g times per call, want 0", allocs)
	}
	_ = sink
}
