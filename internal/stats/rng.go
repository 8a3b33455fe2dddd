// Package stats provides the statistical substrate used by every simulator
// in this repository: a deterministic random-number source, the burst
// distributions the paper fits (exponential and two-stage hyperexponential),
// the method-of-moments hyperexponential fit, histograms, empirical CDFs,
// and streaming summary statistics.
//
// All randomness in the repository flows through RNG so that every
// experiment is reproducible from an explicit seed.
package stats

import "math/rand"

// RNG is a deterministic random-number generator. The zero value is not
// usable; construct one with NewRNG. RNG is not safe for concurrent use;
// simulators that run nodes in parallel give each node its own RNG derived
// with Split.
//
// Its stream is exactly that of rand.New(rand.NewSource(seed)). The uniform
// draws (Float64, Bool, Int63 and Split) and ExpFloat64 call a concrete
// copy of math/rand's source directly, skipping the rand.Source interface;
// the remaining methods go through a rand.Rand over that same source, so
// both paths advance one shared state.
type RNG struct {
	src rngSource
	r   *rand.Rand // wraps &src
}

// NewRNG returns a generator seeded with seed. Equal seeds yield identical
// streams.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// Split derives an independent generator from r. The derived stream is a
// deterministic function of r's current state, so a fixed sequence of Split
// calls after NewRNG is reproducible.
func (r *RNG) Split() *RNG {
	// Mix two draws so neighbouring splits do not share low bits.
	seed := r.src.Int63() ^ (r.src.Int63() << 1)
	return NewRNG(seed)
}

// Clone returns an independent copy of r whose stream continues exactly
// where r's would: the copy and r draw the same values from here on. The
// copy costs one source state, about 5 KB.
func (r *RNG) Clone() *RNG {
	c := &RNG{src: r.src}
	c.r = rand.New(&c.src)
	return c
}

// Float64 returns a uniform variate in [0, 1). It is math/rand's Float64,
// including the retry that keeps a rounded-up 1.0 out of the stream.
func (r *RNG) Float64() float64 {
	for {
		if f := float64(r.src.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn returns a uniform variate in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return r.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// NormFloat64 returns a standard normal variate.
func (r *RNG) NormFloat64() float64 { return r.r.NormFloat64() }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.r.Perm(n) }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Cursor is a position in an RNG's uniform stream held by value, for loops
// that draw many uniforms in a row: advancing a Cursor keeps the source's
// two indices in locals instead of storing and reloading them through the
// RNG on every draw. Take one with RNG.Cursor, draw with Float64, and hand
// it back with RNG.SetCursor before the RNG itself draws again. The
// values are exactly the RNG's own Float64 stream.
//
// A Cursor is a plain value on purpose: a pointer to one would put the
// indices back in memory, which is the cost it exists to remove.
type Cursor struct {
	vec       *[rngLen]int64
	tap, feed int
}

// Cursor returns r's current stream position. r must not draw until the
// position is handed back with SetCursor.
func (r *RNG) Cursor() Cursor {
	return Cursor{vec: &r.src.vec, tap: r.src.tap, feed: r.src.feed}
}

// SetCursor moves r to position c, which must have come from r.Cursor.
// It panics on a cursor of another RNG.
func (r *RNG) SetCursor(c Cursor) {
	if c.vec != &r.src.vec {
		panic("stats: SetCursor with another RNG's cursor")
	}
	r.src.tap, r.src.feed = c.tap, c.feed
}

// Float64 returns the next uniform variate in [0, 1) and the cursor after
// it: RNG.Float64, step for step.
func (c Cursor) Float64() (float64, Cursor) {
	for {
		c.tap--
		if c.tap < 0 {
			c.tap += rngLen
		}
		c.feed--
		if c.feed < 0 {
			c.feed += rngLen
		}
		x := c.vec[c.feed] + c.vec[c.tap]
		c.vec[c.feed] = x
		if f := float64(x&rngMask) / (1 << 63); f != 1 {
			return f, c
		}
	}
}
