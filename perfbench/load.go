package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// clock is the pacer's view of time, so tests can drive the open loop
// with a fake one.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// pace is the open-loop schedule: request i is due at i*interval, and
// release(i, due, at) is called once the clock reaches the due time. The
// schedule never waits for a reply, so a stalled system does not slow
// the offered load. When release itself stalls, the following requests
// are released late, with at > due; the caller records that lateness and
// times each request from its due time, so the stall counts against every
// request it delayed.
func pace(c clock, n int, interval time.Duration, release func(i int, due, at time.Duration)) {
	for i := 0; i < n; i++ {
		due := time.Duration(i) * interval
		c.sleepUntil(due)
		release(i, due, c.now())
	}
}

// sample is one open-loop request's timeline, relative to the start of
// the phase.
type sample struct {
	due, released, start, end time.Duration
	ok                        bool
}

// latency is the time from when the request was due to its reply.
func (s sample) latency() time.Duration { return s.end - s.due }

// lateness is how late the generator released the request.
func (s sample) lateness() time.Duration { return s.released - s.due }

// openLoop offers n requests at a fixed rate through conns client
// connections and returns each request's timeline. One pacing goroutine
// releases requests on schedule; the connections take them in order, so
// when every connection is busy a request waits, and that wait is part
// of its latency.
func openLoop(n int, rate float64, conns int, send func(i int) bool) []sample {
	c := newRealClock()
	out := make([]sample, n)
	// Sized to the request count: the pacer must never block on a busy
	// client, or the offered load would follow the replies.
	jobs := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i].start = c.now()
				out[i].ok = send(i)
				out[i].end = c.now()
			}
		}()
	}
	go func() {
		// The pacer never unlocks its thread, so the thread and its timer
		// slack end with the goroutine, right after close.
		c.lockPacer()
		pace(c, n, time.Duration(float64(time.Second)/rate), func(i int, due, at time.Duration) {
			out[i].due, out[i].released = due, at
			jobs <- i
		})
		close(jobs)
	}()
	wg.Wait()
	return out
}

// closedLoop sends requests 0..n-1 through conns connections, each
// sending its next request only after the previous reply, and returns
// the wall time and how many requests failed.
func closedLoop(n, conns int, send func(i int) bool) (time.Duration, int) {
	var (
		mu     sync.Mutex
		next   int
		failed int
		wg     sync.WaitGroup
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		i := next
		next++
		return i, i < n
	}
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				if !send(i) {
					mu.Lock()
					failed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(t0), failed
}

// realClock is the wall clock. The Go runtime rounds sleeps shorter than
// a millisecond up to about a millisecond, which would make every request
// of a 10 000 req/s schedule late; the pacer therefore sleeps with
// nanosleep on its own OS thread with the thread's timer slack set to
// 1 ns, which wakes within about 10 µs (Linux only).
type realClock struct{ t0 time.Time }

func newRealClock() realClock { return realClock{t0: time.Now()} }

func (c realClock) now() time.Duration { return time.Since(c.t0) }

func (c realClock) sleepUntil(t time.Duration) {
	for d := t - c.now(); d > 0; d = t - c.now() {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
	}
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK option.
const prSetTimerSlack = 29

// lockPacer pins the calling goroutine to its OS thread and sets that
// thread's timer slack to 1 ns.
func (realClock) lockPacer() {
	runtime.LockOSThread()
	// A failure leaves the default 50 µs slack: the pacer is then less
	// punctual, which its lateness metric shows.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}
