package fault

import "stashsim/internal/snapshot"

// State walks. The fault plan itself is configuration (the network
// fingerprint covers it); the injector's dynamic state is the stats
// shards, the stash-failure delivery cursor, and every per-link RNG
// stream and wormhole drop latch. Links are walked in wiring order,
// which the rebuilt network reproduces exactly.

// state walks one stats shard.
func (s *Stats) state(c *snapshot.Codec) {
	c.I64(&s.PktsDropped)
	c.I64(&s.FlitsDropped)
	c.I64(&s.OutagePkts)
	c.I64(&s.FlitsCorrupted)
	c.I64(&s.StashCopiesLost)
	c.I64(&s.StashCopiesReconstructed)
}

// State walks the injector's dynamic state; decoding expects an injector
// built from the identical plan and wired in the identical order.
//
//stashsim:phase serial -- walks unsynchronized per-link shards; runs only at a cycle barrier or before the restored run starts
func (in *Injector) State(c *snapshot.Codec) {
	c.Section("FALT")
	in.local.state(c)
	snapshot.Wire32(c, &in.failNext)
	c.Bound("fault: stash-failure cursor", in.failNext, 0, len(in.fails)+1)
	// A link: six counts, an RNG state, and a packet ID and a flag per VC.
	if !c.Len("fault: faulted links", len(in.links), 6+1+2*len(LinkFault{}.dropPkt)) {
		return
	}
	for _, lf := range in.links {
		lf.stats.state(c)
		c.RNG(lf.rng)
		for vc := range lf.dropPkt {
			c.U64(&lf.dropPkt[vc])
			c.Bool(&lf.dropActive[vc])
		}
	}
}

// State walks the ledger: its records in ascending packet-ID order, each
// walked by rec (elemMin bytes at least), which walks its Timer with the
// owner's fields, then the timer list in arming order, stale entries
// included. Decoding draws the records from the freelist.
func (l *Ledger[T, P]) State(c *snapshot.Codec, elemMin int, rec func(P)) {
	snapshot.Map(c, &l.recs, 1+elemMin, c.U64, func(r *P) {
		if c.Decoding() {
			*r = l.take()
		}
		rec(*r)
	})
	snapshot.Slice(c, &l.timers, 1+1, func(t *armed) {
		c.I64(&t.deadline)
		c.U64(&t.id)
	})
}

// State walks a ledger record's timer: two bytes at least.
func (t *Timer) State(c *snapshot.Codec) {
	c.I64(&t.deadline)
	c.U8(&t.retries)
}
