// Package arb provides the arbitration primitives of the tiled switch: a
// round-robin arbiter and the separable output-first allocator used by the
// tile crossbars (Becker & Dally, "Allocator Implementations for
// Network-on-Chip Routers").
package arb

import "math/bits"

// RoundRobin is a work-conserving round-robin arbiter over n requesters.
// The grant pointer advances past the winner so every requester is served
// within n arbitration rounds (strong fairness under persistent requests).
type RoundRobin struct {
	n    int
	next int
}

// NewRoundRobin returns an arbiter over n requesters.
func NewRoundRobin(n int) RoundRobin { return RoundRobin{n: n} }

// Grant returns the index of the winning requester, scanning from the
// pointer, or -1 when no requests are asserted. req must have length n.
func (r *RoundRobin) Grant(req []bool) int {
	for i := 0; i < r.n; i++ {
		k := r.next + i
		if k >= r.n {
			k -= r.n
		}
		if req[k] {
			r.next = k + 1
			if r.next == r.n {
				r.next = 0
			}
			return k
		}
	}
	return -1
}

// Next returns the current scan-start position, for callers that fold the
// eligibility test into their own scan loop.
func (r *RoundRobin) Next() int { return r.next }

// Advance moves the pointer past an externally-chosen winner.
func (r *RoundRobin) Advance(winner int) {
	r.next = winner + 1
	if r.next >= r.n {
		r.next = 0
	}
}

// GrantMask is Grant over a bitmask of up to 64 requesters.
func (r *RoundRobin) GrantMask(req uint64) int {
	if req == 0 {
		return -1
	}
	for i := 0; i < r.n; i++ {
		k := r.next + i
		if k >= r.n {
			k -= r.n
		}
		if req&(1<<uint(k)) != 0 {
			r.next = k + 1
			if r.next == r.n {
				r.next = 0
			}
			return k
		}
	}
	return -1
}

// Separable is a separable output-first allocator matching I input
// requesters to O output resources. Each output has a round-robin arbiter
// over inputs and each input has a round-robin arbiter over outputs; a
// single allocation pass runs output arbitration first, then input
// arbitration over the provisional grants. The result is a conflict-free
// (partial) matching computed in one cycle.
type Separable struct {
	out []RoundRobin // per-output arbiter over inputs
	in  []RoundRobin // per-input arbiter over outputs
	// prov (provisional winner per output: input index or -1) and won
	// (per-input bitmask of provisionally granted outputs) are scratch.
	prov []int    //stashsim:transient -- every Allocate call recomputes it
	won  []uint64 //stashsim:transient -- every Allocate call recomputes it
}

// NewSeparable builds an allocator with numIn inputs and numOut outputs.
// numOut must be at most 64.
func NewSeparable(numIn, numOut int) *Separable {
	if numOut > 64 {
		panic("arb: separable allocator limited to 64 outputs")
	}
	s := &Separable{
		out:  make([]RoundRobin, numOut),
		in:   make([]RoundRobin, numIn),
		prov: make([]int, numOut),
		won:  make([]uint64, numIn),
	}
	for i := range s.out {
		s.out[i] = NewRoundRobin(numIn)
	}
	for i := range s.in {
		s.in[i] = NewRoundRobin(numOut)
	}
	return s
}

// Allocate computes a matching. req[i] is the bitmask of outputs requested
// by input i. The returned slice maps each output to its matched input, or
// -1. The slice is reused across calls.
func (s *Separable) Allocate(req []uint64) []int {
	for o := range s.prov {
		s.prov[o] = -1
	}
	for i := range s.won {
		s.won[i] = 0
	}
	// Output stage: each output picks among requesting inputs.
	for o := range s.out {
		bit := uint64(1) << uint(o)
		a := &s.out[o]
		for k := 0; k < len(req); k++ {
			idx := a.next + k
			if idx >= len(req) {
				idx -= len(req)
			}
			if req[idx]&bit != 0 {
				s.prov[o] = idx
				s.won[idx] |= bit
				break
			}
		}
	}
	// Input stage: each input accepts one of its provisional grants.
	for i := range s.won {
		if s.won[i] == 0 {
			continue
		}
		o := s.in[i].GrantMask(s.won[i])
		// Cancel the grants this input declined and advance the
		// accepted output's pointer past the winner.
		for b := s.won[i]; b != 0; b &= b - 1 {
			oo := bits.TrailingZeros64(b)
			if oo != o {
				s.prov[oo] = -1
			}
		}
		a := &s.out[o]
		a.next = i + 1
		if a.next == len(req) {
			a.next = 0
		}
	}
	return s.prov
}
