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
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"lingerlonger/internal/obs"
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

// Samples are stored in fixed blocks of blockLen consecutive samples
// (8192 s of a two-second trace), the unit in which a generated trace is
// synthesized on demand.
const (
	blockShift = 12
	blockLen   = 1 << blockShift
	blockMask  = blockLen - 1
)

// block holds blockLen consecutive samples, one column per field plus the
// recruitment-threshold idle flag, so the hot readers (UtilizationAt,
// IdleAt) touch only the columns they need. The last block of a trace may
// be partly used.
type block struct {
	cpu  [blockLen]float64
	free [blockLen]float64
	kb   [blockLen]bool
	idle [blockLen]bool
}

// Trace is a sequence of samples from one workstation. It is immutable:
// every read returns the same value however and whenever it is made.
//
// A trace from NewTrace or Read holds every block from the start. A trace
// from GenerateCorpus holds its generator instead and synthesizes a block
// the first time anything reads it (DESIGN.md §8), so a cluster run that
// reads a short span of a week-long trace pays for little more than that
// span. Reads are safe from any number of goroutines: a filled block is
// published through an atomic pointer, and filling is serialized per
// trace.
type Trace struct {
	interval float64 // seconds between samples (SampleInterval)
	totalMB  float64 // physical memory size of the machine
	n        int     // number of samples
	blocks   []atomic.Pointer[block]
	gen      *generator // fills missing blocks; nil when every block is set
}

// NewTrace returns a trace of samples taken every interval seconds on a
// machine with totalMB megabytes of memory. The samples are copied, so
// later changes to the slice do not reach the trace. NewTrace does not
// check the values; Validate does.
func NewTrace(interval, totalMB float64, samples []Sample) *Trace {
	t := makeTrace(interval, totalMB, len(samples))
	lastActive := -RecruitmentDelay // pretend quiet before the trace
	for b := range t.blocks {
		blk := new(block)
		for j, s := range samples[b*blockLen : b*blockLen+t.blockSize(b)] {
			blk.cpu[j], blk.free[j], blk.kb[j] = s.CPU, s.FreeMB, s.Keyboard
			blk.idle[j] = idleStep(&lastActive, float64(b*blockLen+j)*interval, s.CPU, s.Keyboard)
		}
		t.blocks[b].Store(blk)
	}
	return t
}

// makeTrace returns a trace of n samples with no block set, for
// constructors in this package that fill the blocks.
func makeTrace(interval, totalMB float64, n int) *Trace {
	return &Trace{
		interval: interval,
		totalMB:  totalMB,
		n:        n,
		blocks:   make([]atomic.Pointer[block], (n+blockMask)>>blockShift),
	}
}

// blockSize returns the number of samples in block b.
func (t *Trace) blockSize(b int) int { return min(blockLen, t.n-b*blockLen) }

// block returns block b, synthesizing it first if no reader has yet, and
// counts the samples that took in rec (nil counts nothing). A counter is
// registered only once it has something to count, so a run that
// synthesizes nothing leaves no trace counters behind.
func (t *Trace) block(b int, rec *obs.Recorder) *block {
	if p := t.blocks[b].Load(); p != nil {
		return p
	}
	p, adv, fill := t.fill(b)
	if adv > 0 {
		rec.Counter(obs.TraceSamplesAdvanced).Add(int64(adv))
	}
	if fill > 0 {
		rec.Counter(obs.TraceSamplesFilled).Add(int64(fill))
	}
	return p
}

// idleStep applies the recruitment threshold to the sample at now seconds:
// it records the sample as activity when the keyboard was touched or the
// CPU reached RecruitmentCPU, and reports whether the machine has then
// been quiet for RecruitmentDelay seconds.
func idleStep(lastActive *float64, now, cpu float64, kb bool) bool {
	if kb || cpu >= RecruitmentCPU {
		*lastActive = now
	}
	return now-*lastActive >= RecruitmentDelay
}

// Interval returns the seconds between samples.
func (t *Trace) Interval() float64 { return t.interval }

// TotalMB returns the physical memory size of the machine in megabytes.
func (t *Trace) TotalMB() float64 { return t.totalMB }

// Len returns the number of samples.
func (t *Trace) Len() int { return t.n }

// Sample returns sample i. It panics if i is out of range.
func (t *Trace) Sample(i int) Sample {
	if uint(i) >= uint(t.n) {
		panic(fmt.Sprintf("trace: sample %d out of range [0,%d)", i, t.n))
	}
	blk, j := t.block(i>>blockShift, nil), i&blockMask
	return Sample{CPU: blk.cpu[j], FreeMB: blk.free[j], Keyboard: blk.kb[j]}
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
	i := int(math.Floor(at / t.interval))
	if uint(i) >= uint(n) { // outside [0, n): wrap, which needs a division
		i %= n
		if i < 0 {
			i += n
		}
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
	return t.block(i>>blockShift, nil).cpu[i&blockMask]
}

// IdleMask returns the recruitment-threshold idle flag of every sample:
// sample i is idle when the CPU stayed below RecruitmentCPU and the
// keyboard was untouched for the previous RecruitmentDelay seconds. The
// trace is treated as starting after a long quiet period, so a quiet
// prefix counts as idle. The slice is the caller's own.
func (t *Trace) IdleMask() []bool {
	mask := make([]bool, 0, t.n)
	for b := range t.blocks {
		mask = append(mask, t.block(b, nil).idle[:t.blockSize(b)]...)
	}
	return mask
}

// fillCorpus sets every block of every trace, on min(traces, GOMAXPROCS)
// goroutines, for the readers that need whole traces.
func fillCorpus(traces []*Trace) {
	forEach(len(traces), func(i int) {
		for b := range traces[i].blocks {
			traces[i].block(b, nil)
		}
	})
}

// forEach calls fn(i) for every i in [0, n) on min(n, GOMAXPROCS)
// goroutines and returns when all calls have.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
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

	// Synthesis caused by reads through this view is counted here (nil
	// counts nothing); see Prefill.
	rec *obs.Recorder
}

// NewView returns a view of tr starting at offset seconds (wrapped).
func NewView(tr *Trace, offset float64) *View {
	if tr.Len() == 0 {
		panic("trace: NewView on empty trace")
	}
	return &View{trace: tr, offset: offset}
}

// Prefill fills the block each view starts in and counts that synthesis,
// and every later fill that a read through one of the views causes, in
// rec (nil counts nothing): trace.samples.advanced counts the samples the
// generator stepped through without storing, trace.samples.filled the
// samples it stored. Each trace's blocks are filled in ascending order on
// one goroutine, the traces on min(traces, GOMAXPROCS) goroutines; blocks
// beyond the first fill when a read first reaches them.
func Prefill(views []*View, rec *obs.Recorder) {
	starts := make(map[*Trace][]int)
	var traces []*Trace
	for _, v := range views {
		v.rec = rec
		tr := v.trace
		if _, ok := starts[tr]; !ok {
			traces = append(traces, tr)
		}
		starts[tr] = append(starts[tr], tr.index(v.offset)>>blockShift)
	}
	forEach(len(traces), func(i int) {
		bs := starts[traces[i]]
		slices.Sort(bs)
		for _, b := range bs {
			traces[i].block(b, rec)
		}
	})
}

// Trace returns the underlying trace.
func (v *View) Trace() *Trace { return v.trace }

// sample returns the block and in-block position of view time t.
func (v *View) sample(t float64) (*block, int) {
	i := v.trace.index(v.offset + t)
	return v.trace.block(i>>blockShift, v.rec), i & blockMask
}

// UtilizationAt returns CPU utilization at view time t.
func (v *View) UtilizationAt(t float64) float64 {
	blk, j := v.sample(t)
	return blk.cpu[j]
}

// SampleAt returns the full sample at view time t.
func (v *View) SampleAt(t float64) Sample {
	blk, j := v.sample(t)
	return Sample{CPU: blk.cpu[j], FreeMB: blk.free[j], Keyboard: blk.kb[j]}
}

// Window returns the CPU utilization, free memory and idle state at view
// time t: UtilizationAt, SampleAt(t).FreeMB and IdleAt in one lookup, for
// the cluster simulator's per-window snapshot of every node.
func (v *View) Window(t float64) (cpu, free float64, idle bool) {
	blk, j := v.sample(t)
	return blk.cpu[j], blk.free[j], blk.idle[j]
}

// IdleAt reports the recruitment-threshold idle state at view time t.
//
// Note: wrapping means the mask's quiet-prefix assumption also applies at
// the wrap point; with multi-day traces the bias is negligible.
func (v *View) IdleAt(t float64) bool {
	blk, j := v.sample(t)
	return blk.idle[j]
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
	for i := range t.n {
		s := t.Sample(i)
		if s.CPU < 0 || s.CPU > 1 {
			return fmt.Errorf("trace: sample %d CPU %g out of [0,1]", i, s.CPU)
		}
		if s.FreeMB < 0 || s.FreeMB > t.totalMB {
			return fmt.Errorf("trace: sample %d free memory %g out of [0,%g]", i, s.FreeMB, t.totalMB)
		}
	}
	return nil
}
