// Package rng provides the deterministic random-number utilities shared
// by the samplers: a splittable 64-bit generator, categorical sampling,
// and Walker alias tables for O(1) weighted selection. Everything here
// is reproducible from a seed, which the experiments rely on.
package rng

import (
	"math/bits"
	"math/rand"
	"sync"
)

// RNG is a seeded source of randomness. It wraps math/rand so every
// sampler draws from an explicit, reproducible stream rather than the
// global source.
type RNG struct {
	r *rand.Rand
}

// New returns a generator seeded with seed.
func New(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Reseed restarts the generator at seed: the stream that follows is the
// one New(seed) yields, drawn from the source this generator already
// owns. A recycled sampling run restarts its generator this way instead
// of allocating and discarding a 607-word source per call.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// pool keeps generators between the calls that borrow them.
var pool = sync.Pool{New: func() any { return New(0) }}

// Borrow returns a generator restarted at seed — the stream New(seed)
// yields — from a process-wide pool, so a call that draws builds no
// 607-word source once the pool holds one. The caller hands it back with
// Return when nothing holds it any more; a generator that outlives the
// call is built with New.
func Borrow(seed int64) *RNG {
	g := pool.Get().(*RNG)
	g.Reseed(seed)
	return g
}

// Return hands a generator from Borrow back to the pool.
func Return(g *RNG) { pool.Put(g) }

// Split derives an independent generator from the current stream. Use it
// to hand each subsystem its own stream so that interleaving does not
// perturb reproducibility.
func (g *RNG) Split() *RNG {
	return New(g.r.Int63())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Uint64n returns a uniform uint64 in [0, n) using Lemire's
// multiply-shift bounded draw with rejection: the 128-bit product
// x·n splits into hi (the candidate) and lo (the fraction), and lo is
// rejected only in the narrow band that would bias hi. Unlike the
// float derivation int64(Float64()*float64(n)) it is exact for every
// n — no 53-bit precision loss, and the result can never round up to
// n. It panics if n == 0, matching Intn's contract.
func (g *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(g.r.Uint64(), n)
	if lo < n {
		// Rejection band: thresh = 2^64 mod n; candidates whose low
		// word falls below it are over-represented by one.
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(g.r.Uint64(), n)
		}
	}
	return hi
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}
