package snapcleanfix

import "stashsim/internal/snapshot"

func (r *ring) state(c *snapshot.Codec) {
	if c.Decoding() {
		*r = ring{}
	}
	snapshot.Ring(c, r, 8, c.I64)
}

func (t *tracker) state(c *snapshot.Codec) {
	t.timers.state(c)
	snapshot.Map(c, &t.byID, 10, c.U64, func(r **rec) {
		if c.Decoding() {
			*r = &rec{}
		}
		c.U8(&(*r).port)
		c.Bound("rec.port", int((*r).port), 0, t.radix)
		c.Bool(&(*r).acked)
	})
	c.I64(&t.Stalls)
}
