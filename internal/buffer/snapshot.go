package buffer

import (
	"math/bits"

	"stashsim/internal/proto"
	"stashsim/internal/snapshot"
)

// State walks for the storage structures. Structural parameters
// (capacities, VC counts, reserve quotas, parity width) are rebuilt from
// the configuration and verified, not serialized; only dynamic state is
// walked. Flits travel in the canonical proto wire encoding, so every
// decode inherits the proto codec's range validation.

// timedEntries presents a Timed queue as the FIFO of its entries.
type timedEntries[T any] struct{ *Timed[T] }

func (q timedEntries[T]) Push(e Entry[T]) { q.Timed.Push(e.At, e.V) }

// Entries is the queue as snapshot.Ring walks it: each entry's deadline
// travels first, then its value.
func (q *Timed[T]) Entries() snapshot.FIFO[Entry[T]] { return timedEntries[T]{q} }

// State walks the DAMQ's per-VC queues; decoding expects a fresh DAMQ.
// The pool accounting and the occupancy mask are a function of the queues
// — each flit's FlagShared names the pool it holds a slot of — so decoding
// rebuilds them by pushing every flit through Push, and refuses one Push
// would not take: a flit of another VC, or one past its pool.
func (d *DAMQ) State(c *snapshot.Codec) {
	c.Section("DAMQ")
	if !c.Len("buffer: DAMQ VCs", d.nvc, 4) {
		return
	}
	pool := d.capacity - d.nvc*d.reserve
	for vc := 0; vc < d.nvc; vc++ {
		c.ReplayFlits(&d.queues[vc], func(f proto.Flit) {
			c.Bound("DAMQ flit.VC", int(f.VC), vc, vc+1)
			if f.Flags&proto.FlagShared != 0 {
				c.Bound("DAMQ.shared", d.shared+1, 0, pool+1)
			} else {
				c.Bound("DAMQ.resvUsed", d.resvUsed[vc]+1, 0, d.reserve+1)
			}
			if c.Err() == nil {
				d.Push(f)
			}
		})
	}
}

// State walks the credit counter's free-credit state.
func (cc *CreditCounter) State(c *snapshot.Codec) {
	if !c.Len("buffer: credit counter VCs", cc.nvc, 8) {
		return
	}
	for vc := 0; vc < cc.nvc; vc++ {
		snapshot.Wire64(c, &cc.resvFree[vc])
	}
	snapshot.Wire64(c, &cc.shared)
}

// State walks the output buffer's retention window — its release
// deadlines — and then its per-VC queues; decoding expects a fresh buffer.
// The queued count and the occupancy mask are a function of the queues, so
// decoding rebuilds them by pushing every flit through Push, after the
// window so that Push sees the space the window holds, and refuses one
// Push would not take: a flit of another VC, or one past the capacity.
func (b *OutBuf) State(c *snapshot.Codec) {
	c.Section("OUTB")
	if !c.Len("buffer: output buffer VCs", b.nvc, 4) {
		return
	}
	snapshot.Ring(c, b.inflight.Entries(), 8, func(e *Entry[struct{}]) { c.I64(&e.At) })
	c.Bound("OutBuf used flits", b.Used(), 0, b.capacity+1)
	for vc := 0; vc < b.nvc; vc++ {
		c.ReplayFlits(&b.queues[vc], func(f proto.Flit) {
			c.Bound("OutBuf flit.VC", int(f.VC), vc, vc+1)
			c.Bound("OutBuf used flits", b.Used()+1, 0, b.capacity+1)
			if c.Err() == nil {
				b.Push(f)
			}
		})
	}
}

// Payload walks one retained payload — a flit count followed by canonical
// wire flits — drawing a fresh buffer from this pool's freelist when
// decoding. Every retained payload holds at least its head flit: the
// retransmission path reads Flits[0] to route the copy.
func (p *StashPool) Payload(c *snapshot.Codec, b **proto.PktBuf) {
	if c.Decoding() {
		*b = p.bufs.Get()
	}
	snapshot.Slice(c, &(*b).Flits, proto.FlitWireSize, c.Flit)
	c.Bound("PktBuf.Flits length", len((*b).Flits), 1, proto.MaxPacketFlits+1)
}

// State walks the stash pool's dynamic state; decoding expects a fresh
// pool built with the identical capacity and retention setting. The maps
// travel in ascending packet-ID order, and the fill record as two of them
// with one entry at most: the flits arrived and, when retained, their
// payload. Each retained-payload entry owns exactly one buffer reference
// at a cycle barrier — transient retransmission references never span one.
func (p *StashPool) State(c *snapshot.Codec) {
	c.Section("STSH")
	snapshot.Wire64(c, &p.reserved)
	snapshot.Wire64(c, &p.used)
	snapshot.Wire64(c, &p.parity)
	snapshot.Wire64(c, &p.retrCopies)
	c.I64(&p.freed)
	snapshot.Wire64(c, &p.PeakUsed)
	fl := &p.fill
	if filling(c, fl.n > 0, 9, &fl.id) {
		c.U8(&fl.n)
		c.Bound("StashPool fill flits", int(fl.n), 1, proto.MaxPacketFlits)
	}
	snapshot.Map(c, &p.copies, 9, c.U64, c.U8)
	snapshot.Map(c, &p.dead, 9, c.U64, c.U8)
	payload := func(b **proto.PktBuf) { p.Payload(c, b) }
	snapshot.Map(c, &p.store, 12, c.U64, payload)
	id := fl.id
	switch has := filling(c, fl.buf != nil, 12, &id); {
	case has != (p.retainPayload && fl.n > 0) || id != fl.id:
		c.Failf("stash pool: the retained payload does not match the copy filling")
	case has:
		payload(&fl.buf)
		c.Bound("StashPool fill payload flits", len(fl.buf.Flits), int(fl.n), int(fl.n)+1)
	}
	c.Flits(&p.retrQ)
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
	snapshot.Slice(c, &t.groups, 13, func(g *parityGroup) {
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
	snapshot.Slice(c, &t.freeG, 4, idx)
	snapshot.Slice(c, &t.openG, 4, idx)
	snapshot.Slice(c, &t.sealQ, 4, idx)
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
