// Package sim provides the low-level simulation substrate shared by every
// other package in the repository: the cycle clock, deterministic random
// number streams, and a reusable barrier for the optional parallel executor.
//
// The simulator is cycle-stepped. One Tick equals one internal switch cycle
// (1.3 GHz in the paper's configuration); network channels serialize flits
// at 10 flits per 13 ticks through rate accumulators, which reproduces the
// paper's "30% internal speedup" without a second clock domain.
package sim

// Tick is the simulation time unit: one internal switch cycle.
type Tick = int64

// RNG is a small, fast, deterministic random number generator (splitmix64).
// Every component that needs randomness owns its own RNG seeded from the
// experiment master seed, so simulations are reproducible and independent of
// component iteration order.
type RNG struct {
	state uint64
}

// NewRNG returns an RNG seeded with seed. Distinct seeds produce
// statistically independent streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{state: seed}
	// Warm the state so that nearby seeds diverge immediately.
	r.Uint64()
	r.Uint64()
	return r
}

// Derive returns a new RNG whose stream is a deterministic function of the
// parent seed and the given stream identifier. It does not perturb the
// parent's state.
func (r *RNG) Derive(stream uint64) *RNG {
	return NewRNG(r.state ^ (stream+1)*0x9E3779B97F4A7C15)
}

// State returns the full generator state (splitmix64 is its own state),
// for checkpointing.
func (r *RNG) State() uint64 { return r.state }

// SetState overwrites the generator state, restoring a checkpointed
// stream exactly where it left off.
func (r *RNG) SetState(s uint64) { r.state = s }

// gamma is splitmix64's state increment: every draw adds it once.
const gamma = 0x9E3779B97F4A7C15

// Uint64 returns the next 64 uniformly random bits.
//
//stashsim:noalloc
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Skip moves the stream past k draws of Uint64 — or of Intn, Int63,
// Float64 or Bernoulli, each of which is one draw — in O(1), since a
// draw only adds gamma to the state. A negative k rewinds the stream by
// -k draws.
//
//stashsim:noalloc
func (r *RNG) Skip(k int64) { r.state += uint64(k) * gamma }

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
//
//stashsim:noalloc
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free approximation is fine here;
	// the modulo bias for n << 2^64 is negligible for simulation purposes,
	// but we use the widening multiply to avoid it entirely.
	hi, _ := mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Int63 returns a uniformly random non-negative int64.
//
//stashsim:noalloc
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Float64 returns a uniformly random float64 in [0, 1).
//
//stashsim:noalloc
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
//
//stashsim:noalloc
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
//
//stashsim:noalloc
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo = a * b
	hi = a1*b1 + (t >> 32) + (a0*b1+t&mask32)>>32
	return hi, lo
}
