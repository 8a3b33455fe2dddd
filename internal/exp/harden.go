package exp

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lingerlonger/internal/obs"
	"lingerlonger/internal/stats"
)

// This file is the crash-safe execution layer around the sweep pool: a
// Runner that isolates per-point panics, bounds runaway points with a
// watchdog deadline, retries transient failures, optionally finishes a
// sweep despite failed points (fail-soft), and persists every completed
// point to a checkpoint store so an interrupted run can resume without
// recomputing finished work. Because each point is a pure function of
// (master seed, sweep ID, point index), a restored point is bit-identical
// to a recomputed one, and a resumed sweep is indistinguishable from an
// uninterrupted run.

// Store is the checkpoint seam the Runner persists through. It is
// implemented by checkpoint.Run; the indirection keeps this package free
// of filesystem concerns and lets tests inject failing or counting
// stores.
type Store interface {
	// Lookup returns the stored snapshot for (sweep, index), or ok=false
	// when the point has not been completed. Implementations must treat a
	// damaged snapshot as absent, never return garbage.
	Lookup(sweep string, index int) (data []byte, ok bool, err error)
	// Save persists one completed point. It must be atomic and safe for
	// concurrent use.
	Save(sweep string, index int, data []byte) error
}

// PanicError is a recovered per-point panic, preserved with its stack so
// a crashing sweep point is debuggable after the pool has moved on.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // debug.Stack() captured at recovery
}

// Error reports the panic value; the stack is in Stack.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// ErrPointTimeout marks a point attempt abandoned by the watchdog.
// Errors returned for timed-out points wrap it.
var ErrPointTimeout = errors.New("exp: point exceeded watchdog deadline")

// PointError is the typed failure of one sweep point: which sweep, which
// index, how many attempts were made, and the last attempt's error (a
// *PanicError for panics, wrapping ErrPointTimeout for watchdog kills).
type PointError struct {
	Sweep    string // full sweep ID ("" for anonymous Map calls)
	Index    int
	Attempts int
	Err      error
}

// Error identifies the sweep, point and final attempt's failure.
func (e *PointError) Error() string {
	suffix := ""
	if e.Attempts > 1 {
		suffix = fmt.Sprintf(" (after %d attempts)", e.Attempts)
	}
	if e.Sweep == "" {
		return fmt.Sprintf("exp: task %d: %v%s", e.Index, e.Err, suffix)
	}
	return fmt.Sprintf("exp: sweep %s point %d: %v%s", e.Sweep, e.Index, e.Err, suffix)
}

// Unwrap exposes the last attempt's error to errors.Is/As.
func (e *PointError) Unwrap() error { return e.Err }

// Stats counts what a Runner did across all of its sweeps.
type Stats struct {
	Computed int64 // points executed to success
	Restored int64 // points restored from the checkpoint store
	Retried  int64 // points that needed more than one attempt to succeed
	Failed   int64 // points that exhausted their attempts
}

// runnerState is shared between a Runner and every Named derivative, so
// failures and counters aggregate across the whole run.
type runnerState struct {
	computed atomic.Int64
	restored atomic.Int64
	retried  atomic.Int64

	mu       sync.Mutex
	failures []*PointError
}

// Runner executes sweeps with crash-safety hardening. The zero Runner is
// not useful — build one with NewRunner, then set the exported policy
// fields. A nil *Runner is valid everywhere one is accepted and selects
// the plain, unhardened pool (GOMAXPROCS workers, one attempt, no
// watchdog, no checkpointing), so drivers can take a Runner without
// forcing every caller to construct one.
type Runner struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Attempts is the per-point attempt budget; <= 0 means 1 (no
	// retries). Retrying is safe because every point is a pure function
	// of (seed, index): a retry recomputes the identical result.
	Attempts int
	// Timeout is the per-attempt watchdog deadline; 0 disables it. A
	// timed-out attempt is abandoned (its goroutine parks until the task
	// returns — Go cannot kill it; cluster.Config.MaxTime and RunArrivals'
	// *cluster.ArrivalBudgetError are the backstops that make stuck
	// models return) and counts against Attempts.
	Timeout time.Duration
	// FailSoft makes a sweep run to completion even when points fail:
	// failed points keep their zero value, the sweep returns nil error,
	// and the failures are collected on the Runner (Failures) for the
	// caller to report. Without FailSoft the first failing (lowest)
	// index aborts the sweep, exactly like Map.
	FailSoft bool
	// Store, when non-nil, checkpoints every completed point and
	// restores already-completed points instead of recomputing them.
	Store Store
	// FaultHook, when non-nil, runs before every point attempt. It is a
	// deterministic fault-injection seam for tests and drills: it may
	// return an error (transient failure), panic (buggy point), or block
	// (runaway point — caught by the watchdog). The sweep argument is the
	// full sweep ID.
	FaultHook func(sweep string, index, attempt int) error
	// Rec, when non-nil, receives the exp.points.* counters and the
	// exp.point_seconds wall-clock histogram. Named derivatives share it.
	// Metrics are outputs only — no execution decision reads them.
	Rec *obs.Recorder

	prefix string
	state  *runnerState
}

// NewRunner returns a hardened Runner with the given pool size and
// default policy: one attempt, no watchdog, fail-fast, no store.
func NewRunner(workers int) *Runner {
	return &Runner{Workers: workers, state: &runnerState{}}
}

// Named returns a Runner that prefixes every sweep ID with name
// (slash-joined). Counters, failures, policy and store are shared with
// the parent — Named only namespaces sweep IDs, so one driver function
// can be invoked twice in a run (e.g. Fig7 for each workload) without
// its checkpoints colliding.
func (r *Runner) Named(name string) *Runner {
	if r == nil {
		return nil
	}
	c := *r
	c.prefix = joinSweep(r.prefix, name)
	return &c
}

// Failures returns every point failure collected by fail-soft sweeps,
// ordered by (sweep, index).
func (r *Runner) Failures() []*PointError {
	if r == nil || r.state == nil {
		return nil
	}
	r.state.mu.Lock()
	out := make([]*PointError, len(r.state.failures))
	copy(out, r.state.failures)
	r.state.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sweep != out[j].Sweep {
			return out[i].Sweep < out[j].Sweep
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// Stats returns the Runner's cumulative counters.
func (r *Runner) Stats() Stats {
	if r == nil || r.state == nil {
		return Stats{}
	}
	r.state.mu.Lock()
	failed := int64(len(r.state.failures))
	r.state.mu.Unlock()
	return Stats{
		Computed: r.state.computed.Load(),
		Restored: r.state.restored.Load(),
		Retried:  r.state.retried.Load(),
		Failed:   failed,
	}
}

func (r *Runner) workers() int {
	if r == nil {
		return 0
	}
	return r.Workers
}

func (r *Runner) attempts() int {
	if r == nil || r.Attempts <= 0 {
		return 1
	}
	return r.Attempts
}

func (r *Runner) store() Store {
	if r == nil {
		return nil
	}
	return r.Store
}

func (r *Runner) failSoft() bool { return r != nil && r.FailSoft }

// Recorder returns the Runner's observability recorder, nil-safe. Figure
// drivers that build simulator configs deep inside a sweep pull the
// recorder from the runner they were handed, so one wiring point at the
// command line reaches every layer.
func (r *Runner) Recorder() *obs.Recorder {
	if r == nil {
		return nil
	}
	return r.Rec
}

func joinSweep(prefix, sweep string) string {
	switch {
	case prefix == "":
		return sweep
	case sweep == "":
		return prefix
	default:
		return prefix + "/" + sweep
	}
}

// RunSweep executes task(0..n-1) under r's hardening policy and returns
// the results ordered by index. sweep names the sweep for checkpoint
// keys and failure reports; it must be unique within a run when
// checkpointing is on. With a nil Runner it behaves exactly like
// Map(0, n, task).
//
// When r.Store is set, T must be gob-encodable (exported fields); every
// completed point is persisted and already-stored points are restored
// without running task.
func RunSweep[T any](r *Runner, sweep string, n int, task func(i int) (T, error)) ([]T, error) {
	return runSweep(r, sweep, n, task)
}

// RunSeeded is RunSweep for randomized tasks: each attempt of point i
// receives a fresh stats.RNG seeded with DeriveSeed(master, i), so no
// stream is shared between points (or between retries of one point) and
// the results do not depend on the worker count or the retry history.
func RunSeeded[T any](r *Runner, sweep string, master int64, n int, task func(i int, rng *stats.RNG) (T, error)) ([]T, error) {
	return runSweep(r, sweep, n, func(i int) (T, error) {
		return task(i, stats.NewRNG(DeriveSeed(master, i)))
	})
}

// runSweep is the shared execution core behind Map, SeededMap, RunSweep
// and RunSeeded.
func runSweep[T any](r *Runner, sweep string, n int, task func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	id := sweep
	if r != nil {
		id = joinSweep(r.prefix, sweep)
	}
	store := r.store()
	if store != nil && id == "" {
		return nil, errors.New("exp: checkpointing requires a non-empty sweep ID")
	}

	w := Workers(r.workers())
	if w > n {
		w = n
	}
	results := make([]T, n)
	perr := make([]*PointError, n)

	// Observability handles, resolved once per sweep. Counters are
	// atomic sums, so their final values are independent of worker count;
	// the wall-clock histogram is a profiling side channel.
	var (
		cComputed, cRestored, cRetried *obs.Counter
		hPoint                         *obs.Histogram
	)
	if r != nil && r.Rec != nil {
		cComputed = r.Rec.Counter(obs.ExpPointsComputed)
		cRestored = r.Rec.Counter(obs.ExpPointsRestored)
		cRetried = r.Rec.Counter(obs.ExpPointsRetried)
		hPoint = r.Rec.Histogram(obs.ExpPointSeconds)
	}

	var (
		fatalMu  sync.Mutex
		fatalErr error // storage/encoding failure: aborts even fail-soft runs
	)
	setFatal := func(err error) {
		fatalMu.Lock()
		if fatalErr == nil {
			fatalErr = err
		}
		fatalMu.Unlock()
	}

	// point runs one index to completion (restore, or attempt loop) and
	// reports whether the sweep should stop dispatching.
	point := func(i int) (stop bool) {
		if store != nil {
			data, ok, err := store.Lookup(id, i)
			if err != nil {
				setFatal(err)
				return true
			}
			if ok {
				var v T
				if decodeSnapshot(data, &v) == nil {
					results[i] = v
					if r.state != nil {
						r.state.restored.Add(1)
					}
					cRestored.Inc()
					return false
				}
				// Undecodable snapshot: recompute and overwrite below.
			}
		}

		attempts := r.attempts()
		var lastErr error
		for a := 1; a <= attempts; a++ {
			var start time.Time
			if hPoint != nil {
				start = time.Now()
			}
			v, err := callPoint(r, id, i, a, task)
			if err != nil {
				lastErr = err
				continue
			}
			if hPoint != nil {
				hPoint.Observe(time.Since(start).Seconds())
			}
			results[i] = v
			if r != nil && r.state != nil {
				r.state.computed.Add(1)
				if a > 1 {
					r.state.retried.Add(1)
				}
			}
			cComputed.Inc()
			if a > 1 {
				cRetried.Inc()
			}
			if store != nil {
				data, err := encodeSnapshot(&v)
				if err != nil {
					setFatal(fmt.Errorf("exp: encode snapshot %s[%d]: %w", id, i, err))
					return true
				}
				if err := store.Save(id, i, data); err != nil {
					setFatal(fmt.Errorf("exp: save snapshot %s[%d]: %w", id, i, err))
					return true
				}
			}
			return false
		}
		perr[i] = &PointError{Sweep: id, Index: i, Attempts: attempts, Err: lastErr}
		return !r.failSoft()
	}

	if w == 1 {
		// Inline serial path: the reference order the pool reproduces.
		for i := 0; i < n; i++ {
			if point(i) {
				break
			}
		}
	} else {
		var (
			next    atomic.Int64
			stopped atomic.Bool
			wg      sync.WaitGroup
		)
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n || stopped.Load() {
						return
					}
					if point(i) {
						stopped.Store(true)
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	if fatalErr != nil {
		return nil, fatalErr
	}
	var failures []*PointError
	for _, pe := range perr {
		if pe != nil {
			failures = append(failures, pe)
		}
	}
	if len(failures) == 0 {
		return results, nil
	}
	if r.failSoft() {
		if r.state != nil {
			r.state.mu.Lock()
			r.state.failures = append(r.state.failures, failures...)
			r.state.mu.Unlock()
		}
		return results, nil
	}
	// Fail-fast: dispatch is monotonic, so every index below the first
	// failure was attempted and the lowest-index error is deterministic.
	return nil, failures[0]
}

// callPoint runs one attempt of task(i) with panic isolation and, when
// configured, the watchdog deadline. The FaultHook (if any) runs inside
// the same protection, so hook-injected panics and hangs behave exactly
// like task-level ones.
func callPoint[T any](r *Runner, sweep string, i, attempt int, task func(i int) (T, error)) (T, error) {
	run := func() (out T, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = &PanicError{Value: p, Stack: debug.Stack()}
			}
		}()
		if r != nil && r.FaultHook != nil {
			if err := r.FaultHook(sweep, i, attempt); err != nil {
				return out, err
			}
		}
		return task(i)
	}

	if r == nil || r.Timeout <= 0 {
		return run()
	}
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1) // buffered: an abandoned attempt parks nothing
	go func() {
		v, err := run()
		ch <- outcome{v, err}
	}()
	timer := time.NewTimer(r.Timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-timer.C:
		var zero T
		return zero, fmt.Errorf("%w (%s)", ErrPointTimeout, r.Timeout)
	}
}

// encodeSnapshot serializes a point result for the checkpoint store. gob
// is used rather than JSON because sweep results legitimately contain
// ±Inf (reconfiguration with zero idle nodes) and float64 values must
// round-trip bit-exactly for resumed runs to stay byte-identical.
func encodeSnapshot[T any](v *T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeSnapshot[T any](data []byte, v *T) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
