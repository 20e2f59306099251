package snapcleanfix

import "stashsim/internal/snapshot"

func (r *ring[T]) state(c *snapshot.Codec, elem func(*T)) {
	snapshot.Ring(c, r, 8, elem)
}

func (t *tracker) state(c *snapshot.Codec) {
	t.timers.state(c, c.I64)
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
