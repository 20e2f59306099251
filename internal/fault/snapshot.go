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
	if !c.Len("fault: faulted links", len(in.links), 57) {
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
