package buffer

import (
	"math/bits"

	"stashsim/internal/proto"
	"stashsim/internal/snapshot"
)

// State walks for the storage structures. Structural parameters
// (capacities, VC counts, reserve quotas, parity width) are rebuilt from
// the configuration and verified, not serialized; only dynamic state is
// walked. A decoded flit passes the proto wire codec's range validation
// (see snapshot.Codec.Flit).

// State walks the DAMQ's per-VC queues; decoding expects a fresh DAMQ.
// The pool accounting and the occupancy mask are a function of the queues
// — each flit's FlagShared names the pool it holds a slot of — so decoding
// rebuilds them by pushing every flit through Push, and refuses one Push
// would not take: a flit of another VC, or one past its pool.
func (d *DAMQ) State(c *snapshot.Codec) {
	c.Section("DAMQ")
	if !c.Len("buffer: DAMQ VCs", d.NumVCs(), 1) {
		return
	}
	pool := d.Capacity() - d.NumVCs()*d.Reserve()
	for vc := range d.NumVCs() {
		ReplayList(c, d.flits, &d.queues[vc], func(f proto.Flit) {
			c.Bound("DAMQ flit.VC", int(f.VC), vc, vc+1)
			if f.Flags&proto.FlagShared != 0 {
				c.Bound("DAMQ.shared", d.SharedUsed()+1, 0, pool+1)
			} else {
				c.Bound("DAMQ.resvUsed", d.ResvUsed(vc)+1, 0, d.Reserve()+1)
			}
			if c.Err() == nil {
				d.Push(f)
			}
		})
	}
}

// State walks the credit counter's free-credit state.
func (cc *CreditCounter) State(c *snapshot.Codec) {
	if !c.Len("buffer: credit counter VCs", cc.NumVCs(), 1) {
		return
	}
	for vc := range cc.NumVCs() {
		snapshot.Wire64(c, &cc.resvFree[vc])
	}
	snapshot.Wire64(c, &cc.shared)
}

// State walks the output buffer's retention window — its release
// deadlines — and then its per-VC queues, as of cycle now, the next to
// execute; decoding expects a fresh buffer.
// The queued count and the occupancy mask are a function of the queues, so
// decoding rebuilds them by pushing every flit through Push, after the
// window so that Push sees the space the window holds, and refuses one
// Push would not take: a flit of another VC, or one past the capacity.
func (b *OutBuf) State(c *snapshot.Codec, now int64) {
	c.Section("OUTB")
	if !c.Len("buffer: output buffer VCs", int(b.nvc), 1) {
		return
	}
	b.inflight.State(c, now)
	c.Bound("OutBuf used flits", b.Used(), 0, b.Capacity()+1)
	for vc := range int(b.nvc) {
		ReplayList(c, b.flits, &b.queues[vc], func(f proto.Flit) {
			c.Bound("OutBuf flit.VC", int(f.VC), vc, vc+1)
			c.Bound("OutBuf used flits", b.Used()+1, 0, b.Capacity()+1)
			if c.Err() == nil {
				b.Push(f)
			}
		})
	}
}

// State walks the retention window, as of cycle now, as the FIFO of its
// deadlines, each a due distance from the one before. Decoding refuses a
// deadline the window cannot hold, naming its offset: one not later than
// the one before, one a whole window or more after the oldest, or one a
// whole window or more after now. The last is a deadline no send before
// now made — the latest, sent at now-1, is due at now-1+span — and it
// would make the port's next send, due at now+span or later, fail Push.
func (r *Retention) State(c *snapshot.Codec, now int64) {
	n := c.Count(r.Len(), 1)
	if !c.Decoding() {
		r.Each(func(at int64) { c.Due(&at) })
		return
	}
	r.Reset()
	for i := 0; i < n && c.Err() == nil; i++ {
		off := c.Offset()
		var at int64
		if c.Due(&at); c.Err() != nil {
			return
		}
		if !r.Fits(at) {
			c.Failf("retention deadline %d at offset %d does not fit the retention window: it is due %d cycles after the oldest and %d after the one before, in a window of %d",
				at, off, at-r.front, at-r.back, r.span)
			return
		}
		if at-now >= r.span {
			c.Failf("retention deadline %d at offset %d is due %d cycles after the checkpoint cycle %d, in a window of %d: no send before that cycle is due so late",
				at, off, at-now, now, r.span)
			return
		}
		r.Push(at)
	}
}

// Payload walks one retained payload, list l of this pool's flit pool, as
// a flit queue: a count followed by the flits. Decoding fills l, which
// must be empty. Every retained payload holds at least its head flit: the
// retransmission path reads it to route the copy.
func (p *StashPool) Payload(c *snapshot.Codec, l *FlitList) {
	ReplayList(c, p.flits, l, nil)
	c.Bound("StashPool payload length", l.Len(), 1, proto.MaxPacketFlits+1)
}

// State walks the stash pool's dynamic state; decoding expects a fresh
// pool built with the identical capacity and retention setting. The maps
// travel in ascending packet-ID order, a live copy as its size and, when
// payloads are retained, its payload, whose length decoding requires to
// be the size; the fill record travels as two maps with one entry at
// most: the flits arrived and, when retained, their payload.
func (p *StashPool) State(c *snapshot.Codec) {
	c.Section("STSH")
	snapshot.Wire64(c, &p.reserved)
	snapshot.Wire64(c, &p.used)
	snapshot.Wire64(c, &p.parity)
	snapshot.Wire64(c, &p.retrCopies)
	c.I64(&p.freed)
	snapshot.Wire64(c, &p.PeakUsed)
	fl := &p.fill
	if filling(c, fl.n > 0, 1+1, &fl.id) {
		c.U8(&fl.n)
		c.Bound("StashPool fill flits", int(fl.n), 1, proto.MaxPacketFlits)
	}
	snapshot.Map(c, &p.copies, 1+1, c.U64, func(lc *liveCopy) {
		c.U8(&lc.size)
		if !p.retainPayload || c.Err() != nil {
			return
		}
		off := c.Offset()
		if p.Payload(c, &lc.payload); lc.payload.Len() != int(lc.size) && c.Err() == nil {
			c.Failf("stash pool: the retained payload at offset %d holds %d flits, its copy %d",
				off, lc.payload.Len(), lc.size)
		}
	})
	snapshot.Map(c, &p.dead, 1+1, c.U64, c.U8)
	payload := func(l *FlitList) { p.Payload(c, l) }
	id := fl.id
	switch has := filling(c, !fl.payload.Empty(), 1+1, &id); {
	case has != (p.retainPayload && fl.n > 0) || id != fl.id:
		c.Failf("stash pool: the retained payload does not match the copy filling")
	case has:
		payload(&fl.payload)
		c.Bound("StashPool fill payload flits", fl.payload.Len(), int(fl.n), int(fl.n)+1)
	}
	ReplayList(c, p.flits, &p.retrQ, nil)
}

// filling walks one half of the fill record in the stream's form, a
// ledger keyed by packet ID that holds at most one entry: a count, then the
// key, which is the filling packet's. It reports whether the entry's value
// follows. Decoding refuses a second entry: a pool fills one copy at a time.
func filling(c *snapshot.Codec, present bool, elemMin int, id *uint64) bool {
	n := 0
	if present {
		n = 1
	}
	n = c.Count(n, elemMin)
	if c.Bound("StashPool filling copies", n, 0, 2); n == 0 || c.Err() != nil {
		return false
	}
	c.U64(id)
	return c.Err() == nil
}

// State walks the parity tracker's dynamic state: the full group slab
// (slot recycling order is behaviorally significant — FailCandidates and
// the audit walk it in slab order, and freeG's LIFO order decides which
// slot the next group reuses), the free/open/seal lists, and the
// cumulative counters. byPkt is derivable from live members and rebuilt
// while decoding.
func (t *ParityTracker) State(c *snapshot.Codec) {
	c.Section("PRTY")
	if c.Decoding() {
		clear(t.byPkt)
	}
	gi := int32(0)
	snapshot.Slice(c, &t.groups, 1+1+1+1+1, func(g *parityGroup) {
		c.U8(&g.n)
		c.Bound("parityGroup.n", int(g.n), 0, MaxParityWidth+1)
		c.U8(&g.state)
		c.Bound("parityGroup.state", int(g.state), 0, int(gSealed)+1)
		c.U64(&g.bankSet) // its set bits index the pools
		c.Bound("parityGroup.bankSet", bits.Len64(g.bankSet), 0, len(t.pools)+1)
		snapshot.Wire16(c, &g.parityBank)
		c.Bound("parityGroup.parityBank", int(g.parityBank), -1, len(t.pools))
		c.U8(&g.paritySize)
		for i := 0; i < int(g.n) && c.Err() == nil; i++ {
			m := &g.members[i]
			c.U64(&m.pktID)
			c.U8(&m.size)
			snapshot.Wire16(c, &m.bank)
			c.Bound("parityMember.bank", int(m.bank), 0, len(t.pools))
			if c.Decoding() && g.state != gFree {
				t.byPkt[m.pktID] = gi
			}
		}
		gi++
	})
	// The index lists follow the slab, so each entry is checked against it.
	idx := func(gi *int32) {
		snapshot.Wire32(c, gi)
		c.Bound("ParityTracker group index", int(*gi), 0, len(t.groups))
	}
	snapshot.Slice(c, &t.freeG, 1, idx)
	snapshot.Slice(c, &t.openG, 1, idx)
	snapshot.Slice(c, &t.sealQ, 1, idx)
	c.I64(&t.SealedGroups)
	c.I64(&t.SealsDeferred)
	c.I64(&t.GroupsDissolved)
}

// State walks the banked-memory admission gate's dynamic state.
func (m *BankedMem) State(c *snapshot.Codec) {
	for i := range m.parity {
		c.U8(&m.parity[i])
	}
	c.Bool(&m.taken[0])
	c.Bool(&m.taken[1])
	c.I64(&m.cycle)
	c.I64(&m.Conflicts)
	c.I64(&m.Accesses)
}
