package snapfix

import "stashsim/internal/snapshot"

// state is port's one state walk.
func (p *port) state(c *snapshot.Codec) {
	snapshot.Wire64(c, &p.credits)
	snapshot.Slice(c, &p.pending, 9, func(e *entry) {
		c.I64(&e.at)
		c.U8(&e.size)
	})
	snapshot.Wire64(c, &p.recent.n)
	for i := range p.latch {
		c.U64(&p.latch[i].pkt)
	}
}

// helper takes no Codec: it is not a state walk, and bystander stays
// unchecked.
func helper(b *bystander, _ []plan) int { return b.anything }
