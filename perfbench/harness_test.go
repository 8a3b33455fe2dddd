package main

import (
	"os"
	"slices"
	"testing"
	"time"
)

// A pass makes minReps units whatever the time, then starts another only
// when it is expected, at the mean pace so far, to end by the deadline.
func TestMoreStopsBeforeTheDeadline(t *testing.T) {
	p := &pass{start: time.Now().Add(-10 * time.Second), minReps: 2, deadline: time.Now().Add(4 * time.Second)}
	if !p.more(0) || !p.more(1) {
		t.Error("stopped before minReps units")
	}
	// Two units took 10 s: a third would end 5 s from now.
	if p.more(2) {
		t.Error("started a unit expected to end past the deadline")
	}
	// Five units took 10 s: a sixth would end 2 s from now.
	if !p.more(5) {
		t.Error("did not start a unit expected to end in time")
	}
}

// The serve metrics keep the half of the rounds, rounded up, with the
// least host steal, whatever their latency; ties keep the earlier round.
func TestQuieterKeepsLeastStolenHalf(t *testing.T) {
	rounds := []round{{wall: 0, steal: 9}, {wall: 1, steal: 0}, {wall: 2, steal: 3}, {wall: 3, steal: 0}, {wall: 4, steal: 50}}
	var got []float64
	for _, r := range quieter(rounds) {
		got = append(got, r.wall)
	}
	if want := []float64{1, 3, 2}; !slices.Equal(got, want) {
		t.Errorf("kept rounds %v, want %v", got, want)
	}
	if got := quieter(rounds[:1]); len(got) != 1 {
		t.Errorf("one round: kept %d", len(got))
	}
}

func TestHostSteal(t *testing.T) {
	if _, err := os.Stat("/proc/stat"); err != nil {
		t.Skip("no /proc/stat")
	}
	a, err := hostSteal()
	if err != nil {
		t.Fatal(err)
	}
	if b, err := hostSteal(); err != nil || b < a || a < 0 {
		t.Errorf("steal %d then %d (%v), want a count that never falls", a, b, err)
	}
}
