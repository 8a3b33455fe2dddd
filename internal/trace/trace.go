// Package trace provides the coarse-grain workload substrate (§3.2 of the
// paper): per-workstation traces sampled every two seconds containing CPU
// utilization, free memory, and keyboard activity, together with the
// recruitment-threshold idle detector and corpus statistics.
//
// The paper uses traces collected by Arpaci et al. (132 machines over 40
// days). Those traces are not available, so this package synthesizes an
// equivalent corpus with a user-session model (diurnal presence, typing /
// pause / compute episodes, background daemons) calibrated to the
// statistics the paper reports: ~46% of time non-idle, ~76% of non-idle
// samples below 10% CPU, and the Figure 4 free-memory CDF (on 64 MB
// machines, at least 14 MB free 90% of the time and at least 10 MB free
// 95% of the time). See DESIGN.md §2 for the substitution argument.
package trace

import (
	"fmt"
	"math"
	"sync"
)

// SampleInterval is the trace sampling granularity in seconds.
const SampleInterval = 2.0

// Recruitment threshold (the paper's idle definition): a machine is idle
// once the CPU has stayed below RecruitmentCPU and the keyboard untouched
// for RecruitmentDelay seconds.
const (
	RecruitmentCPU   = 0.10
	RecruitmentDelay = 60.0
)

// Sample is one two-second observation of a workstation.
type Sample struct {
	CPU      float64 // local CPU utilization in [0, 1]
	FreeMB   float64 // free physical memory in megabytes
	Keyboard bool    // keyboard or mouse activity during the interval
}

// Trace is a sequence of samples from one workstation. It is immutable:
// NewTrace copies the samples into the trace, which stores them as one
// column per field, so the hot readers (UtilizationAt, IdleMask) touch
// only the columns they need.
type Trace struct {
	interval float64 // seconds between samples (SampleInterval)
	totalMB  float64 // physical memory size of the machine
	cpu      []float64
	free     []float64
	kb       []bool

	// Idle-mask memo. Computing the recruitment mask is O(samples); before
	// it was cached here, NewView recomputed it per node and the 64-node
	// cluster constructor dominated the whole simulation's profile. The
	// sync.Once makes the lazy fill safe when parallel sweep workers build
	// views over a shared corpus.
	maskOnce sync.Once
	maskMemo []bool
}

// NewTrace returns a trace of samples taken every interval seconds on a
// machine with totalMB megabytes of memory. The samples are copied, so
// later changes to the slice do not reach the trace. NewTrace does not
// check the values; Validate does.
func NewTrace(interval, totalMB float64, samples []Sample) *Trace {
	t := makeTrace(interval, totalMB, len(samples))
	for i, s := range samples {
		t.cpu[i], t.free[i], t.kb[i] = s.CPU, s.FreeMB, s.Keyboard
	}
	return t
}

// makeTrace allocates a trace with n zero samples, for constructors in
// this package that fill the columns in place.
func makeTrace(interval, totalMB float64, n int) *Trace {
	return &Trace{
		interval: interval,
		totalMB:  totalMB,
		cpu:      make([]float64, n),
		free:     make([]float64, n),
		kb:       make([]bool, n),
	}
}

// Interval returns the seconds between samples.
func (t *Trace) Interval() float64 { return t.interval }

// TotalMB returns the physical memory size of the machine in megabytes.
func (t *Trace) TotalMB() float64 { return t.totalMB }

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.cpu) }

// Sample returns sample i. It panics if i is out of range.
func (t *Trace) Sample(i int) Sample {
	return Sample{CPU: t.cpu[i], FreeMB: t.free[i], Keyboard: t.kb[i]}
}

// Duration returns the trace length in seconds.
func (t *Trace) Duration() float64 { return float64(t.Len()) * t.interval }

// index maps time (seconds) to a sample index, wrapping around so a trace
// can be read at an arbitrary offset for longer than its duration — the
// paper starts each simulated node "at a randomly selected offset into a
// different machine trace".
func (t *Trace) index(at float64) int {
	n := t.Len()
	if n == 0 {
		return -1
	}
	i := int(math.Floor(at/t.interval)) % n
	if i < 0 {
		i += n
	}
	return i
}

// At returns the sample covering time at (seconds), wrapping around the
// trace end. It panics on an empty trace.
func (t *Trace) At(at float64) Sample {
	i := t.index(at)
	if i < 0 {
		panic("trace: At on empty trace")
	}
	return t.Sample(i)
}

// UtilizationAt returns the CPU utilization at time at. Trace implements
// workload.UtilizationSource.
func (t *Trace) UtilizationAt(at float64) float64 {
	i := t.index(at)
	if i < 0 {
		panic("trace: UtilizationAt on empty trace")
	}
	return t.cpu[i]
}

// IdleMask computes the recruitment-threshold idle flag for every sample:
// sample i is idle when the CPU stayed below RecruitmentCPU and the
// keyboard was untouched for the previous RecruitmentDelay seconds. The
// trace is treated as starting after a long quiet period, so a quiet
// prefix counts as idle.
func (t *Trace) IdleMask() []bool {
	cpu, kb := t.cpu, t.kb[:len(t.cpu)]
	mask := make([]bool, len(cpu))
	lastActive := -RecruitmentDelay // pretend quiet before the trace
	for i, c := range cpu {
		now := float64(i) * t.interval
		if kb[i] || c >= RecruitmentCPU {
			lastActive = now
		}
		mask[i] = now-lastActive >= RecruitmentDelay
	}
	return mask
}

// sharedIdleMask returns the memoized idle mask, computing it on first
// use. The returned slice is shared across every View of the trace and
// must be treated as read-only; IdleMask stays available for callers that
// need a private copy.
func (t *Trace) sharedIdleMask() []bool {
	t.maskOnce.Do(func() { t.maskMemo = t.IdleMask() })
	return t.maskMemo
}

// Episode is a maximal run of consecutive idle or non-idle samples.
type Episode struct {
	Start float64 // seconds, inclusive
	End   float64 // seconds, exclusive
	Idle  bool
}

// Duration returns End-Start.
func (e Episode) Duration() float64 { return e.End - e.Start }

// Episodes splits an idle mask (as produced by IdleMask) into maximal
// idle/non-idle episodes.
func Episodes(mask []bool, interval float64) []Episode {
	if len(mask) == 0 {
		return nil
	}
	var out []Episode
	start := 0
	for i := 1; i <= len(mask); i++ {
		if i == len(mask) || mask[i] != mask[start] {
			out = append(out, Episode{
				Start: float64(start) * interval,
				End:   float64(i) * interval,
				Idle:  mask[start],
			})
			start = i
		}
	}
	return out
}

// View reads a trace starting at a fixed offset, presenting it as an
// infinite (wrapped) workload source with idle-state queries. It is the
// per-node handle the cluster simulator uses.
type View struct {
	trace  *Trace
	offset float64
	mask   []bool
}

// NewView returns a view of tr starting at offset seconds (wrapped).
func NewView(tr *Trace, offset float64) *View {
	if tr.Len() == 0 {
		panic("trace: NewView on empty trace")
	}
	return &View{trace: tr, offset: offset, mask: tr.sharedIdleMask()}
}

// Trace returns the underlying trace.
func (v *View) Trace() *Trace { return v.trace }

// UtilizationAt returns CPU utilization at view time t.
func (v *View) UtilizationAt(t float64) float64 {
	return v.trace.UtilizationAt(v.offset + t)
}

// SampleAt returns the full sample at view time t.
func (v *View) SampleAt(t float64) Sample { return v.trace.At(v.offset + t) }

// IdleAt reports the recruitment-threshold idle state at view time t.
//
// Note: wrapping means the mask's quiet-prefix assumption also applies at
// the wrap point; with multi-day traces the bias is negligible.
func (v *View) IdleAt(t float64) bool {
	return v.mask[v.trace.index(v.offset+t)]
}

// Interval returns the sampling interval of the underlying trace.
func (v *View) Interval() float64 { return v.trace.interval }

// Validate checks structural invariants of the trace.
func (t *Trace) Validate() error {
	if t.interval <= 0 {
		return fmt.Errorf("trace: non-positive interval %g", t.interval)
	}
	if t.totalMB <= 0 {
		return fmt.Errorf("trace: non-positive memory size %g", t.totalMB)
	}
	for i, c := range t.cpu {
		if c < 0 || c > 1 {
			return fmt.Errorf("trace: sample %d CPU %g out of [0,1]", i, c)
		}
		if f := t.free[i]; f < 0 || f > t.totalMB {
			return fmt.Errorf("trace: sample %d free memory %g out of [0,%g]", i, f, t.totalMB)
		}
	}
	return nil
}
