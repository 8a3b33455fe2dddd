package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"lingerlonger/internal/obs"
)

// bench is one workload.
type bench interface {
	// setupReps is how many set-ups the untraced pass times before its
	// first unit of work and after each unit.
	setupReps() int
	// setup builds the inputs from the seed and starts whatever serves
	// them. rec, non-nil only before the traced pass, goes into the
	// configs of layers that accept a recorder.
	setup(rec *obs.Recorder) error
	// close stops what setup started and waits for it.
	close()
	// run is one timed pass: units of work while p.more allows, each
	// followed by p.sampleSetups. A traced pass also fills p.layer.
	run(p *pass) error
}

// size scales the workloads: full for the benchmark, tiny for tests.
type size struct {
	quickTourney bool          // tourney: scenario quick scale instead of paper scale
	sweepSpecs   int           // sweep-fabric: node specs of 60 points each
	coldRate     float64       // serve-cold open-loop rate, req/s
	warmRate     float64       // serve-warm open-loop rate, req/s
	segment      time.Duration // serve: open-loop segment of a round
	coldBatch    int           // serve-cold closed-loop batch, requests
	warmBatch    int           // serve-warm closed-loop batch, requests
}

// The open-loop rates are fixed, never adapted at run time. They sit at
// about a third (serve-cold) and a fifth (serve-warm) of the closed-loop
// capacity with 2 connections measured on a 2-vCPU x86-64 virtual machine (about
// 750 and 14 000 req/s). Queueing shows in the tail, but the machine's
// own speed, which drifts by a fifth on a shared host, cannot push the
// ring into a growing backlog.
var fullSize = size{
	sweepSpecs: 300,
	coldRate:   250,
	warmRate:   2500,
	segment:    2 * time.Second,
	coldBatch:  500,
	warmBatch:  5000,
}

// runConfig is one benchmark invocation.
type runConfig struct {
	seed   int64
	budget time.Duration // length of the whole run, set-ups and both passes
	size   size
}

// untracedMinReps is the fewest units of work the untraced pass makes,
// whatever its budget: two tournaments give the tourney tail its 50
// cells, and a second repetition is what the repeat checks compare.
const untracedMinReps = 2

// pass is one timed pass over a workload: the untraced pass gives the
// end-to-end metrics, the traced pass the per-layer ones.
type pass struct {
	deadline time.Time // no repetition past minReps starts unless it is expected to end by then
	minReps  int
	start    time.Time
	tr       *tracer            // nil in the untraced pass
	rec      *obs.Recorder      // nil in the untraced pass
	reg      *obs.Registry      // rec's registry
	walls    []float64          // seconds per unit of work
	items    []float64          // milliseconds per item (cell, point, request)
	notes    []string           // human-readable detail for standard error
	checks   *[]string          // failed correctness checks, shared by both passes
	attempt  int                // operations attempted
	failed   int                // operations that failed
	layer    map[string]float64 // per-layer metrics; nil in the untraced pass
	spare    bench              // untraced pass of an untraced run: a second instance whose set-up is timed
	setups   []float64          // set-up times, seconds
}

// more reports whether another repetition fits: at least minReps, then
// as many as are expected, at the mean pace so far, to end by the
// deadline.
func (p *pass) more(reps int) bool {
	if reps < p.minReps {
		return true
	}
	now := time.Now()
	return !now.Add(now.Sub(p.start) / time.Duration(reps)).After(p.deadline)
}

// sampleSetups times setupReps set-ups of the spare instance, each on a
// freshly collected heap so that none pays for the garbage of the one
// before it. The untraced pass takes these samples before its first unit
// of work and after every unit, so they spread over the whole run: a
// shared machine's speed drifts over seconds, and set-ups timed back to
// back at the start of a run would all see the same moment. A pass with
// no spare takes none.
func (p *pass) sampleSetups() error {
	if p.spare == nil {
		return nil
	}
	for i := 0; i < p.spare.setupReps(); i++ {
		runtime.GC()
		t0 := time.Now()
		err := p.spare.setup(nil)
		d := time.Since(t0)
		p.spare.close()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		p.setups = append(p.setups, d.Seconds())
	}
	return nil
}

// failf records a failed correctness check.
func (p *pass) failf(format string, args ...any) {
	*p.checks = append(*p.checks, fmt.Sprintf(format, args...))
}

// notef records a line of detail for standard error.
func (p *pass) notef(format string, args ...any) {
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

// counters returns the pass registry's counters summed by base name
// (labels such as {policy=LL} dropped).
func (p *pass) counters() map[string]int64 {
	out := map[string]int64{}
	for name, v := range p.reg.CounterValues() {
		out[obs.BaseName(name)] += v
	}
	return out
}

// outcome is what one invocation reports.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	checks    []string
	notes     []string
}

// execute runs one workload within cfg.budget: its set-up, the untraced
// pass, and with traced one traced unit of work after a fresh set-up with
// recorders attached. A traced run leaves the untraced pass half the
// budget, so that the traced unit fits in the other half.
func execute(newBench func(runConfig) bench, cfg runConfig, traced bool, tr *tracer) (*outcome, error) {
	deadline := time.Now().Add(cfg.budget)
	if traced {
		deadline = time.Now().Add(cfg.budget / 2)
	}
	var checks []string
	b := newBench(cfg)
	runtime.GC()
	t0 := time.Now()
	if err := b.setup(nil); err != nil {
		b.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	base := &pass{deadline: deadline, minReps: untracedMinReps, checks: &checks,
		setups: []float64{time.Since(t0).Seconds()}}
	if !traced {
		base.spare = newBench(cfg) // a traced run does not report setup_s
	}
	err := base.sampleSetups()
	if err == nil {
		runtime.GC()
		base.start = time.Now()
		err = b.run(base)
	}
	b.close()
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}, attempted: base.attempt, failed: base.failed}
	out.notes = append(out.notes, base.notes...)
	if !traced {
		d, err := summarize(base.items)
		if err != nil {
			return nil, fmt.Errorf("latency: %w", err)
		}
		out.metrics["setup_s"] = median(base.setups)
		out.metrics["wall_s"] = median(base.walls)
		out.metrics["p50_ms"] = d.p50
		out.metrics["tail_ms"] = d.tail
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.metrics["peak_rss_mb"] = rss
		out.notes = append(out.notes, fmt.Sprintf("%d set-ups (fastest %.6g s); %d timed units (%.4g to %.4g s); latency over %d items, tail = p%g",
			len(base.setups), slices.Min(base.setups), len(base.walls), slices.Min(base.walls), slices.Max(base.walls), d.n, d.tailP))
	} else {
		reg := obs.NewRegistry()
		rec := obs.New(reg, nil)
		if err := b.setup(rec); err != nil {
			b.close()
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		// The probe does not depend on the workload; sweep-fabric reads
		// stats.sample_ns to estimate the sampling share of the node loop.
		out.metrics["stats.sample_ns"] = sampleNS(cfg.seed)
		// A deadline already past: the traced pass makes exactly one unit.
		p := &pass{deadline: time.Now(), minReps: 1, start: time.Now(), tr: tr, rec: rec, reg: reg,
			checks: &checks, layer: out.metrics}
		err := b.run(p)
		b.close()
		if err != nil {
			return nil, err
		}
		out.attempted += p.attempt
		out.failed += p.failed
		out.notes = append(out.notes, p.notes...)
		out.metrics["trace_overhead_share"] = median(p.walls)/median(base.walls) - 1
	}
	out.checks = checks
	return out, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostSteal reads the steal time of /proc/stat, summed over the CPUs, in
// clock ticks: time in which the hypervisor ran something else while this
// machine had work to run.
func hostSteal() (int64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("no steal time in /proc/stat line %q", line)
	}
	return strconv.ParseInt(f[8], 10, 64)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// p50 is the nearest-rank median of xs, or 0 with a note when there are
// too few samples.
func p50(p *pass, what string, xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, err := percentile(s, 50)
	if err != nil {
		p.notef("%s: %v", what, err)
		return 0
	}
	return v
}
