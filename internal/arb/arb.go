// Package arb provides the arbitration primitives of the tiled switch: a
// round-robin arbiter and the separable output-first allocator used by the
// tile crossbars (Becker & Dally, "Allocator Implementations for
// Network-on-Chip Routers").
package arb

import "math/bits"

// RoundRobin is a work-conserving round-robin arbiter over n <= 64
// requesters, given as a bitmask. The grant pointer advances past the
// winner so every requester is served within n arbitration rounds (strong
// fairness under persistent requests).
type RoundRobin struct {
	n    int
	next int
}

// NewRoundRobin returns an arbiter over n requesters.
func NewRoundRobin(n int) RoundRobin { return RoundRobin{n: n} }

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

// first returns the requester a grant would pick, -1 for none: the lowest
// set bit of req at or above the pointer, or else the lowest set bit of
// all, among the arbiter's n requesters.
func (r *RoundRobin) first(req uint64) int {
	if r.n < 64 {
		req &= 1<<uint(r.n) - 1
	}
	if req == 0 {
		return -1
	}
	if up := req >> uint(r.next); up != 0 {
		return r.next + bits.TrailingZeros64(up)
	}
	return bits.TrailingZeros64(req)
}

// GrantMask returns the winning requester of the bitmask req — bit k asks
// for requester k — scanning from the pointer, and advances the pointer
// past it; -1 when no requests are asserted.
func (r *RoundRobin) GrantMask(req uint64) int {
	k := r.first(req)
	if k >= 0 {
		r.Advance(k)
	}
	return k
}

// Separable is a separable output-first allocator matching I input
// requesters to O output resources, both at most 64. Each output has a
// round-robin arbiter over inputs and each input has a round-robin arbiter
// over outputs; a single allocation pass runs output arbitration first,
// then input arbitration over the provisional grants. The result is a
// conflict-free (partial) matching computed in one cycle.
type Separable struct {
	out []RoundRobin // per-output arbiter over inputs
	in  []RoundRobin // per-input arbiter over outputs
	// reqBy (per-output bitmask of requesting inputs: the request masks
	// transposed), prov (provisional winner per output: input index or -1)
	// and won (per-input bitmask of provisionally granted outputs) are
	// scratch.
	reqBy []uint64 //stashsim:transient -- every Allocate call recomputes it
	prov  []int    //stashsim:transient -- every Allocate call recomputes it
	won   []uint64 //stashsim:transient -- every Allocate call recomputes it
}

// NewSeparable builds an allocator with numIn inputs and numOut outputs.
func NewSeparable(numIn, numOut int) *Separable { return &NewSeparables(1, numIn, numOut)[0] }

// NewSeparables builds count allocators of numIn inputs and numOut
// outputs, each at most 64, carving every allocator's slices from one
// backing array per kind: a switch holds one allocator per tile.
func NewSeparables(count, numIn, numOut int) []Separable {
	if numIn > 64 || numOut > 64 {
		panic("arb: separable allocator limited to 64 inputs and 64 outputs")
	}
	ss := make([]Separable, count)
	rr := make([]RoundRobin, count*(numOut+numIn))
	masks := make([]uint64, count*(numOut+numIn))
	prov := make([]int, count*numOut)
	for k := range ss {
		s := &ss[k]
		s.out, rr = rr[:numOut:numOut], rr[numOut:]
		s.in, rr = rr[:numIn:numIn], rr[numIn:]
		s.reqBy, masks = masks[:numOut:numOut], masks[numOut:]
		s.won, masks = masks[:numIn:numIn], masks[numIn:]
		s.prov, prov = prov[:numOut:numOut], prov[numOut:]
		for i := range s.out {
			s.out[i] = NewRoundRobin(numIn)
		}
		for i := range s.in {
			s.in[i] = NewRoundRobin(numOut)
		}
	}
	return ss
}

// Allocate computes a matching. req[i] is the bitmask of outputs requested
// by input i, for each of the allocator's inputs. The returned slice maps
// each output to its matched input, or -1. The slice is reused across
// calls.
func (s *Separable) Allocate(req []uint64) []int {
	clear(s.reqBy)
	clear(s.won)
	outs := uint64(1)<<uint(len(s.out)) - 1
	if len(s.out) == 64 {
		outs = ^uint64(0)
	}
	for i, r := range req {
		for r &= outs; r != 0; r &= r - 1 {
			s.reqBy[bits.TrailingZeros64(r)] |= 1 << uint(i)
		}
	}
	// Output stage: each output picks among requesting inputs.
	for o := range s.out {
		i := s.out[o].first(s.reqBy[o])
		s.prov[o] = i
		if i >= 0 {
			s.won[i] |= 1 << uint(o)
		}
	}
	// Input stage: each input accepts one of its provisional grants.
	for i, w := range s.won {
		if w == 0 {
			continue
		}
		o := s.in[i].GrantMask(w)
		// Cancel the grants this input declined and advance the
		// accepted output's pointer past the winner.
		for b := w &^ (1 << uint(o)); b != 0; b &= b - 1 {
			s.prov[bits.TrailingZeros64(b)] = -1
		}
		s.out[o].Advance(i)
	}
	return s.prov
}
