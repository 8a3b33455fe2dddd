package workload

import (
	"math"

	"lingerlonger/internal/stats"
)

// sampler draws one burst-duration family without going through the
// stats.Distribution interface: the node burst loop samples millions of
// times per simulated hour, and devirtualizing the call is free speed.
// The arithmetic is exactly HyperExp2.Sample's (same draws, same order,
// same operations), so replacing the interface changed no figure output.
type sampler struct {
	zero bool // pure-idle / pure-busy level: the duration is always 0
	h    stats.HyperExp2
}

// newSampler mirrors the old fitOrZero: a zero mean selects the
// degenerate always-zero sampler, anything else the method-of-moments
// hyperexponential fit.
func newSampler(mean, variance float64) sampler {
	if mean == 0 {
		return sampler{zero: true}
	}
	return sampler{h: stats.MustFitHyperExp2(mean, variance)}
}

// sample draws one duration. A zero sampler draws nothing from rng,
// exactly like the stats.Deterministic zero value it replaces.
func (s *sampler) sample(rng *stats.RNG) float64 {
	if s.zero {
		return 0
	}
	return s.h.Sample(rng)
}

// fill draws len(dst) durations in one tight loop — the batched form the
// figure-CDF sampling and the windowed prefetcher use to amortize
// per-draw call overhead. The variate stream is identical to len(dst)
// sample calls.
func (s *sampler) fill(dst []float64, rng *stats.RNG) {
	if s.zero {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	s.h.SampleInto(dst, rng)
}

// Generator produces alternating run and idle bursts for a single
// utilization level. It samples from the hyperexponential fits of the
// level's parameters, mirroring the paper's simulator input.
//
// A Generator is bound to one utilization; the cluster simulator creates a
// fresh Generator whenever a node's coarse-grain window changes level (see
// Windowed).
type Generator struct {
	params Params
	run    sampler
	idle   sampler
	rng    *stats.RNG
}

// NewGenerator returns a burst generator for utilization u drawn from
// table, using rng for sampling.
func NewGenerator(table *Table, u float64, rng *stats.RNG) *Generator {
	g := makeGenerator(table, u, rng)
	return &g
}

// makeGenerator is NewGenerator without the heap allocation: Windowed
// embeds the generator by value because it replaces it on every window
// roll (once per node per two simulated seconds in the cluster loop).
func makeGenerator(table *Table, u float64, rng *stats.RNG) Generator {
	p := table.ParamsAt(u)
	return Generator{
		params: p,
		run:    newSampler(p.RunMean, p.RunVar),
		idle:   newSampler(p.IdleMean, p.IdleVar),
		rng:    rng,
	}
}

// Params returns the parameters the generator samples from.
func (g *Generator) Params() Params { return g.params }

// NextRun draws the next run-burst duration in seconds (0 when the level is
// pure idle).
func (g *Generator) NextRun() float64 { return g.run.sample(g.rng) }

// NextIdle draws the next idle-burst duration in seconds (0 when the level
// is pure busy).
func (g *Generator) NextIdle() float64 { return g.idle.sample(g.rng) }

// FillRuns fills dst with consecutive run-burst draws. The variate stream
// is identical to calling NextRun len(dst) times; the batch form amortizes
// per-draw overhead for CDF sampling and benchmarks.
func (g *Generator) FillRuns(dst []float64) { g.run.fill(dst, g.rng) }

// FillIdles fills dst with consecutive idle-burst draws, the batched
// NextIdle.
func (g *Generator) FillIdles(dst []float64) { g.idle.fill(dst, g.rng) }

// Cycle draws one (run, idle) pair. A long sequence of cycles has expected
// utilization equal to the generator's level.
func (g *Generator) Cycle() (run, idle float64) {
	return g.NextRun(), g.NextIdle()
}

// UtilizationSource supplies a coarse-grain utilization level for each
// point in time; the synthetic traces in internal/trace implement it.
type UtilizationSource interface {
	// UtilizationAt returns the local CPU utilization in [0, 1] at time t
	// seconds.
	UtilizationAt(t float64) float64
}

// ConstantUtilization is a UtilizationSource with a fixed level.
type ConstantUtilization float64

// UtilizationAt returns the fixed level.
func (c ConstantUtilization) UtilizationAt(float64) float64 { return float64(c) }

// Burst is one segment of processor time.
type Burst struct {
	Start    float64
	Duration float64
	Run      bool // true when local processes occupy the CPU
}

// End returns Start+Duration.
func (b Burst) End() float64 { return b.Start + b.Duration }

// Windowed composes a coarse-grain utilization source with the fine-grain
// burst model: it regenerates burst parameters every window (the paper's
// two-second granularity) and produces a continuous run/idle sequence.
// This is the "Local Workload Generator" box of Figure 6.
//
// Bursts alternate run/idle continuously across window boundaries. A burst
// drawn near the end of a window may overrun into the next one; the level
// changes take effect from the following draw. Burst durations (tens of
// milliseconds) are small against the window (two seconds), so the overrun
// bias is negligible.
type Windowed struct {
	table      *Table
	source     UtilizationSource
	windowSize float64
	rng        *stats.RNG

	now       float64 // generator cursor: end of the latest drawn burst
	windowEnd float64
	gen       Generator // by value: refitted when a window roll changes level
	level     float64   // the raw source value gen was fitted for
	runNext   bool

	// Lookahead state (SetLookahead). The buffer holds bursts already
	// drawn but not yet handed out; consumed trails now by up to a
	// buffer's worth of bursts.
	buf      []Burst
	bufPos   int
	consumed float64
}

// DefaultWindow is the coarse-grain trace granularity, seconds.
const DefaultWindow = 2.0

// NewWindowed returns a windowed generator starting at time 0. windowSize
// <= 0 selects DefaultWindow.
func NewWindowed(table *Table, source UtilizationSource, windowSize float64, rng *stats.RNG) *Windowed {
	if windowSize <= 0 {
		windowSize = DefaultWindow
	}
	w := &Windowed{
		table:      table,
		source:     source,
		windowSize: windowSize,
		rng:        rng,
		level:      math.NaN(), // matches no level, so the first roll fits
		runNext:    true,
	}
	w.roll()
	return w
}

// SetLookahead makes Next draw bursts in batches of n, amortizing the
// per-burst sampling overhead for consumers that walk the stream strictly
// linearly (the Figure 5 single-node sweep, benchmarks). The burst values
// are identical to the unbatched stream — prefetching runs the same
// deterministic draw sequence, just earlier — but the stream's RNG sits
// up to n bursts ahead of the consumption point at any instant, so a
// lookahead stream cannot be rewound: SeekTo panics. Callers that share
// the RNG with other draws, or that seek (the cluster simulator), must
// not enable lookahead. n <= 0 disables batching; enabling lookahead
// after the first Next also panics, because the handed-out and drawn
// positions have already diverged.
func (w *Windowed) SetLookahead(n int) {
	if w.now != 0 || len(w.buf) != 0 {
		panic("workload: SetLookahead after the stream started")
	}
	if n <= 0 {
		w.buf = nil
		return
	}
	w.buf = make([]Burst, 0, n)
}

// roll opens the window containing w.now. The generator is a pure
// function of the table and the level, so it is refitted only when the
// source's level changed: a constant-utilization source fits once. The
// raw source value is compared bit for bit, not the clamped
// Params.Utilization, so a -0 after 0, a NaN and two distinct
// out-of-range levels all refit.
func (w *Windowed) roll() {
	idx := int(w.now / w.windowSize)
	w.windowEnd = float64(idx+1) * w.windowSize
	u := w.source.UtilizationAt(w.now)
	if u == w.level && math.Float64bits(u) == math.Float64bits(w.level) {
		return
	}
	w.level = u
	w.gen = makeGenerator(w.table, u, w.rng)
}

// Now returns the stream's current virtual time: the end of the last
// burst returned by Next. (With lookahead enabled the internal draw
// cursor runs ahead of this; Now always reports the consumption point.)
func (w *Windowed) Now() float64 {
	if w.buf != nil {
		return w.consumed
	}
	return w.now
}

// SeekTo fast-forwards the stream to time t without generating the
// intervening bursts; the cluster simulator uses it when a node has no
// foreign job and its fine-grain activity is irrelevant. Seeking backwards
// panics, as does seeking a lookahead stream (whose RNG has already drawn
// past the consumption point — see SetLookahead).
func (w *Windowed) SeekTo(t float64) {
	if w.buf != nil {
		panic("workload: SeekTo on a lookahead stream")
	}
	if t < w.now {
		panic("workload: SeekTo backwards")
	}
	w.now = t
	w.runNext = true
	w.roll()
}

// Utilization returns the level of the current window. With lookahead
// enabled this is the prefetcher's window, which may be ahead of the
// burst most recently returned by Next.
func (w *Windowed) Utilization() float64 { return w.gen.params.Utilization }

// Next returns the next burst in the stream. Duration is always positive.
// Pure-idle and pure-busy windows yield a single burst spanning the rest of
// the window.
func (w *Windowed) Next() Burst {
	if w.buf == nil {
		return w.drawNext()
	}
	if w.bufPos == len(w.buf) {
		w.refill()
	}
	b := w.buf[w.bufPos]
	w.bufPos++
	w.consumed = b.End()
	return b
}

// refill redraws a full lookahead batch. Only called with an empty buffer.
func (w *Windowed) refill() {
	w.buf = w.buf[:0]
	w.bufPos = 0
	for len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, w.drawNext())
	}
}

// Buffered returns the prefetched bursts not yet handed out, refilling the
// batch when it is empty, or nil when lookahead is disabled. The slice
// aliases the internal buffer and is valid until the next Next, Buffered
// or Consume call; callers must not modify it. Together with Consume it is
// the zero-call batch form of Next: the node hot loop walks the slice
// directly instead of paying one call and one buffer-position update per
// burst.
func (w *Windowed) Buffered() []Burst {
	if w.buf == nil {
		return nil
	}
	if w.bufPos == len(w.buf) {
		w.refill()
	}
	return w.buf[w.bufPos:]
}

// Consume marks the first k bursts of the latest Buffered slice as handed
// out, exactly as if they had been returned by k Next calls. It panics if
// k overruns the buffer.
func (w *Windowed) Consume(k int) {
	if k == 0 {
		return
	}
	if k < 0 || w.bufPos+k > len(w.buf) {
		panic("workload: Consume past the buffered batch")
	}
	w.bufPos += k
	w.consumed = w.buf[w.bufPos-1].End()
}

// drawNext generates one burst at the draw cursor. This is the exact
// pre-lookahead Next: the boundary snap, the pure-level shortcuts, the
// alternation parity and the zero-draw skip are all unchanged, so the
// draw sequence — and with it every figure — is identical whether bursts
// are pulled one at a time or prefetched.
func (w *Windowed) drawNext() Burst {
	for {
		if w.windowEnd-w.now <= 1e-9 {
			// Snap forward onto an exact boundary, never backwards: a
			// burst may have overrun the window end.
			if w.now < w.windowEnd {
				w.now = w.windowEnd
			}
			w.roll()
		}
		p := w.gen.params
		if p.PureIdle() {
			b := Burst{Start: w.now, Duration: w.windowEnd - w.now, Run: false}
			w.now = w.windowEnd
			w.runNext = true
			return b
		}
		if p.PureBusy() {
			b := Burst{Start: w.now, Duration: w.windowEnd - w.now, Run: true}
			w.now = w.windowEnd
			w.runNext = false
			return b
		}
		var d float64
		run := w.runNext
		if run {
			d = w.gen.NextRun()
		} else {
			d = w.gen.NextIdle()
		}
		w.runNext = !w.runNext
		if d <= 1e-12 {
			continue // zero-length draw: skip, keep alternating
		}
		b := Burst{Start: w.now, Duration: d, Run: run}
		w.now += d
		return b
	}
}
