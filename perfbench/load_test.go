package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock moves only when the pacer sleeps or the test says so.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

// A 35 ms stall while releasing request 2 of a 10 ms schedule delays the
// requests behind it. The schedule does not slip: each later request is
// still due at i*10 ms, is released as soon as the pacer is free, and
// counts the delay in its latency and its lateness until the pacer has
// caught up.
func TestPaceStallCountsFromDueTime(t *testing.T) {
	c := &fakeClock{}
	const service = time.Millisecond
	var got []sample
	pace(c, 8, 10*time.Millisecond, func(i int, due, at time.Duration) {
		s := sample{due: due, released: at}
		if i == 2 {
			c.t += 35 * time.Millisecond
		}
		s.start = c.now()
		c.t += service
		s.end = c.now()
		got = append(got, s)
	})
	wantLate := []time.Duration{0, 0, 0, 26, 17, 8, 0, 0}
	wantLat := []time.Duration{1, 1, 36, 27, 18, 9, 1, 1}
	for i, s := range got {
		if s.due != time.Duration(i)*10*time.Millisecond {
			t.Errorf("request %d due at %v: the schedule slipped", i, s.due)
		}
		if late := s.lateness(); late != wantLate[i]*time.Millisecond {
			t.Errorf("request %d lateness %v, want %v", i, late, wantLate[i]*time.Millisecond)
		}
		if lat := s.latency(); lat != wantLat[i]*time.Millisecond {
			t.Errorf("request %d latency %v, want %v from its due time", i, lat, wantLat[i]*time.Millisecond)
		}
	}
}

func TestOpenLoopOffersEveryRequestOnSchedule(t *testing.T) {
	var sent atomic.Int64
	const n, rate = 50, 1000.0
	start := time.Now()
	samples := openLoop(n, rate, 2, func(int) bool { sent.Add(1); return true })
	if sent.Load() != n || len(samples) != n {
		t.Fatalf("sent %d, got %d samples, want %d", sent.Load(), len(samples), n)
	}
	if el := time.Since(start); el < 49*time.Millisecond {
		t.Errorf("50 requests at 1000/s took %v: the pacer ran ahead of the schedule", el)
	}
	for i, s := range samples {
		if !s.ok || s.released < s.due || s.end < s.start || s.start < s.released {
			t.Fatalf("request %d timeline out of order: %+v", i, s)
		}
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	wall, failed := closedLoop(100, 2, func(i int) bool { return i%10 != 0 })
	if failed != 10 || wall <= 0 {
		t.Errorf("failed %d wall %v, want 10 failures", failed, wall)
	}
}
