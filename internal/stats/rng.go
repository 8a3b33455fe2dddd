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
// draws (Float64, Bool, Int63 and Split) call a concrete copy of math/rand's
// source directly, skipping the rand.Source interface; the remaining
// methods go through a rand.Rand over that same source, so both paths
// advance one shared state.
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

// ExpFloat64 returns an exponential variate with mean 1.
func (r *RNG) ExpFloat64() float64 { return r.r.ExpFloat64() }

// NormFloat64 returns a standard normal variate.
func (r *RNG) NormFloat64() float64 { return r.r.NormFloat64() }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.r.Perm(n) }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
