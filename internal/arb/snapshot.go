package arb

import "stashsim/internal/snapshot"

// State walks. Arbiter pointers are part of the deterministic machine
// state: a restored switch must grant in exactly the order the original
// would have, so every round-robin pointer is walked. The Separable
// allocator's reqBy/prov/won scratch is recomputed from scratch on every
// Allocate call and is not state.

// State walks the arbiter's grant pointer, checked against the arbiter's
// structural size (the requester count comes from the rebuilt
// configuration; a zero-requester arbiter keeps its pointer at 0).
func (r *RoundRobin) State(c *snapshot.Codec) {
	next := uint32(r.next) // bounded before it is narrowed to the field
	c.U32(&next)
	c.Bound("RoundRobin.next", int(next), 0, max(int(r.n), 1))
	r.next = uint8(next)
}

// State walks every per-output and per-input arbiter pointer, checking
// the structural shape against the rebuilt allocator.
func (s *Separable) State(c *snapshot.Codec) {
	if !c.Len("arb: separable allocator outputs", len(s.out), 1) {
		return
	}
	for i := range s.out {
		s.out[i].State(c)
	}
	if !c.Len("arb: separable allocator inputs", len(s.in), 1) {
		return
	}
	for i := range s.in {
		s.in[i].State(c)
	}
}
