package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPolicyStringAndParse(t *testing.T) {
	for _, p := range Policies {
		s := p.String()
		got, err := ParsePolicy(s)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", s, err)
		}
		if got != p {
			t.Errorf("round trip %v -> %q -> %v", p, s, got)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy accepted bogus input")
	}
	if got, _ := ParsePolicy("ll"); got != LingerLonger {
		t.Error("lower-case abbreviation rejected")
	}
	if s := Policy(99).String(); s != "Policy(99)" {
		t.Errorf("unknown policy String() = %q", s)
	}
}

func TestPolicyLingers(t *testing.T) {
	if !LingerLonger.Lingers() || !LingerForever.Lingers() {
		t.Error("LL/LF should linger")
	}
	if ImmediateEviction.Lingers() || PauseAndMigrate.Lingers() {
		t.Error("IE/PM should not linger")
	}
}

func TestMigrationCostPaperSetting(t *testing.T) {
	// 8 MB over an effective 3 Mbps plus 0.5 s handling at each end:
	// 8*8/3 + 1 = 22.33 s.
	m := DefaultMigrationCost()
	got := m.Time(8)
	want := 8.0*8/3 + 1
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Time(8MB) = %g, want %g", got, want)
	}
	if got := m.Time(0); math.Abs(got-1) > 1e-9 {
		t.Errorf("Time(0) = %g, want fixed costs only", got)
	}
}

func TestMigrationCostPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero bandwidth did not panic")
			}
		}()
		MigrationCost{BandwidthMbps: 0}.Time(8)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative size did not panic")
			}
		}()
		DefaultMigrationCost().Time(-1)
	}()
}

func TestLingerDuration(t *testing.T) {
	// h=0.2, l=0: Tlingr = (1/0.2)*Tmigr = 5*Tmigr.
	if got, want := LingerDuration(0.2, 0, 10), 50.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("LingerDuration(0.2, 0, 10) = %g, want %g", got, want)
	}
	// Busier destination than source: never migrate.
	if got := LingerDuration(0.1, 0.5, 10); !math.IsInf(got, 1) {
		t.Errorf("LingerDuration(h<l) = %g, want +Inf", got)
	}
	if got := LingerDuration(0.3, 0.3, 10); !math.IsInf(got, 1) {
		t.Errorf("LingerDuration(h==l) = %g, want +Inf", got)
	}
	// Zero migration cost: leave immediately.
	if got := LingerDuration(0.5, 0, 0); got != 0 {
		t.Errorf("LingerDuration with free migration = %g, want 0", got)
	}
}

func TestLingerDurationPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { LingerDuration(-0.1, 0, 1) },
		func() { LingerDuration(0.5, 1.5, 1) },
		func() { LingerDuration(0.5, 0, -1) },
		func() { PredictEpisodeLength(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid input did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestPredictEpisodeLength(t *testing.T) {
	if got := PredictEpisodeLength(30); got != 60 {
		t.Errorf("PredictEpisodeLength(30) = %g, want 60 (2x median-remaining-life)", got)
	}
	if got := PredictEpisodeLength(0); got != 0 {
		t.Errorf("PredictEpisodeLength(0) = %g", got)
	}
}

// completionTimes evaluates the two Figure 1 timelines with the fluid
// model: a foreign job needing work CPU-seconds on a node that is non-idle
// (utilization h) for tnidle seconds then idle (utilization l), versus
// lingering tlingr then migrating (cost tmigr, no progress) to an idle
// node at utilization l.
func completionTimes(work, tnidle, tlingr, h, l, tmigr float64) (stay, migrate float64) {
	// Stay: rate (1-h) during the episode, then (1-l).
	stay = tnidle + (work-(1-h)*tnidle)/(1-l)
	// Migrate at tlingr: progress (1-h)*tlingr, then a dead interval tmigr,
	// then rate (1-l) on the destination.
	migrate = tlingr + tmigr + (work-(1-h)*tlingr)/(1-l)
	return stay, migrate
}

// Property: MigrationBeneficial agrees with the fluid timeline evaluation
// for arbitrary parameters — the §2 derivation holds.
func TestMigrationBeneficialMatchesTimelineQuick(t *testing.T) {
	f := func(hRaw, lRaw, nidleRaw, lingrRaw, migrRaw uint16) bool {
		h := 0.05 + float64(hRaw%90)/100     // [0.05, 0.95)
		l := float64(lRaw%1000) / 1000 * 0.9 // [0, 0.9)
		tmigr := 1 + float64(migrRaw%300)/10 // [1, 31)
		tnidle := 1 + float64(nidleRaw%5000) // [1, 5001)
		tlingr := float64(lingrRaw) / 65535 * tnidle
		// Work large enough that completion is after the episode either way.
		work := (1 - l) * (tnidle + tmigr) * 3

		stay, migrate := completionTimes(work, tnidle, tlingr, h, l, tmigr)
		wantBeneficial := migrate <= stay
		got := MigrationBeneficial(tnidle, tlingr, h, l, tmigr)
		if h <= l {
			// Model says never beneficial; the fluid evaluation agrees up
			// to boundary ties.
			return !got
		}
		// Tolerate boundary ties where the two sides are within rounding.
		if math.Abs(stay-migrate) < 1e-6 {
			return true
		}
		return got == wantBeneficial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: lingering exactly Tlingr with the 2x predictor is the
// break-even point: an episode of length 2*Tlingr makes migration exactly
// beneficial, anything shorter does not.
func TestLingerDurationBreakEvenQuick(t *testing.T) {
	f := func(hRaw, lRaw, migrRaw uint16) bool {
		h := 0.10 + float64(hRaw%85)/100 // [0.10, 0.95)
		l := float64(lRaw) / 65535 * (h - 0.05)
		tmigr := 1 + float64(migrRaw%300)/10
		tl := LingerDuration(h, l, tmigr)
		if math.IsInf(tl, 1) {
			return false // h > l by construction, must be finite
		}
		// Predicted episode = 2*age; at age = Tlingr the predicted episode
		// satisfies the benefit inequality with equality.
		if !MigrationBeneficial(2*tl, tl, h, l, tmigr-1e-9) {
			return false
		}
		shorter := tl * 0.9
		return !MigrationBeneficial(2*shorter, shorter, h, l, tmigr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHealthPolicyValidate(t *testing.T) {
	if err := DefaultHealthPolicy().Validate(); err != nil {
		t.Errorf("default policy invalid: %v", err)
	}
	for _, p := range []HealthPolicy{
		{SuspectAfter: 0, DeadAfter: 5},
		{SuspectAfter: -1, DeadAfter: 5},
		{SuspectAfter: 3, DeadAfter: 2},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %+v accepted", p)
		}
	}
}

func TestHealthTrackerStateMachine(t *testing.T) {
	tr := NewHealthTracker(HealthPolicy{SuspectAfter: 2, DeadAfter: 4})
	if tr.State() != Healthy {
		t.Fatalf("initial state = %v", tr.State())
	}
	// Single misses below the threshold stay Healthy.
	if st := tr.Observe(false); st != Healthy {
		t.Errorf("after 1 miss: %v", st)
	}
	if st := tr.Observe(false); st != Suspect {
		t.Errorf("after 2 misses: %v", st)
	}
	if st := tr.Observe(false); st != Suspect {
		t.Errorf("after 3 misses: %v", st)
	}
	if st := tr.Observe(false); st != Dead {
		t.Errorf("after 4 misses: %v", st)
	}
	if tr.Missed() != 4 {
		t.Errorf("missed = %d, want 4", tr.Missed())
	}
	// Dead is not terminal: a success resurrects from any state.
	if st := tr.Observe(true); st != Healthy {
		t.Errorf("after resurrection: %v", st)
	}
	if tr.Missed() != 0 {
		t.Errorf("missed after success = %d", tr.Missed())
	}
	// A success mid-streak resets the consecutive count entirely.
	tr.Observe(false)
	tr.Observe(true)
	if st := tr.Observe(false); st != Healthy {
		t.Errorf("one miss after reset: %v", st)
	}
}

func TestHealthTrackerPanicsOnInvalidPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid policy accepted")
		}
	}()
	NewHealthTracker(HealthPolicy{SuspectAfter: 5, DeadAfter: 2})
}

func TestHealthStateString(t *testing.T) {
	for want, s := range map[string]HealthState{
		"healthy": Healthy, "suspect": Suspect, "dead": Dead,
	} {
		if s.String() != want {
			t.Errorf("String() = %q, want %q", s.String(), want)
		}
	}
	if HealthState(42).String() == "" {
		t.Error("unknown state stringifies empty")
	}
}

// Recovering a checkpointed job costs exactly the §2 migration time: the
// checkpoint image ships like a live migration.
func TestRecoveryCostEqualsMigration(t *testing.T) {
	m := DefaultMigrationCost()
	for _, mb := range []float64{0, 8, 24, 64} {
		if got, want := RecoveryCost(m, mb), m.Time(mb); got != want {
			t.Errorf("RecoveryCost(%gMB) = %g, want %g", mb, got, want)
		}
	}
}
