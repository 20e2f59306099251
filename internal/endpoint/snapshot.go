package endpoint

import (
	"math"

	"stashsim/internal/buffer"
	"stashsim/internal/proto"
	"stashsim/internal/snapshot"
)

// State walks for the endpoints. A link path is walked by the switch whose
// group's pool holds it (see the core package's walks): both of an
// endpoint's links live in its switch's group's pools, so the endpoint
// walks the paths its
// switch's ports do not — the flits of fromSw and the credits of toSw — and
// the network walks the endpoint beside its switch. The traffic
// generator closure itself is rebuilt by the harness; only its RNG stream
// (GenRNG) is carried across a restart.

// State walks the endpoint's full dynamic state at cycle now, the next
// cycle to execute; decoding expects a freshly built endpoint of the
// identical configuration.
//
// The generator's stream is written as its per-cycle form would have left
// it at now — the barrier rule: a generator that announced a later cycle
// has drawn one miss ahead for each cycle up to it (see Gen), and the
// bytes hand those draws back while the live stream keeps them. A
// restored endpoint's fresh generator has announced nothing and draws on
// from there, so snapshot bytes do not depend on how far ahead it looked.
//
//stashsim:phase serial -- walks partition-owned queues and maps; runs only at a cycle barrier or before the restored run starts
func (e *Endpoint) State(c *snapshot.Codec, now int64) {
	c.Section("ENDP")
	c.RNG(e.rng)
	if c.Present("a traffic generator RNG on an endpoint", e.GenRNG != nil) {
		if c.Decoding() {
			c.RNG(e.GenRNG)
		} else {
			// Codec.RNG's wire form, from a copy that stays on the stack.
			perCycle := *e.GenRNG
			perCycle.Skip(-e.drawsAhead(now))
			s := perCycle.State()
			c.U64(&s)
		}
	}
	e.fromSw.FlitState(c)
	e.toSw.CreditState(c)
	e.credits.State(c)
	snapshot.Wire64(c, &e.acc)
	snapshot.Wire64(c, &e.rrIdx)
	c.U32(&e.pktSeq)

	// Active send queues, in active-list order (the list's order and the
	// rotation pointer are part of the arbitration state). A send queue
	// exists only while it is listed, and injection reads the front of
	// every listed queue, so each is non-empty and listed once.
	p := e.Pools()
	if c.Decoding() {
		clear(e.queues)
		for k := range e.active {
			e.active[k].q.Reset(p.Sends())
		}
	}
	snapshot.Slice(c, &e.active, 1+1, func(sq *sendQueue) {
		c.I32(&sq.dst)
		if c.Decoding() {
			if _, held := e.queues[sq.dst]; held {
				c.Failf("endpoint: destination %d listed twice among the active send queues", sq.dst)
			}
			e.queues[sq.dst] = int32(len(e.queues))
		}
		sq.q.Walk(c, p.Sends(), 1+1+1+1, func(d *proto.PktDesc) { descState(c, e, d) })
		c.Bound("send queue length", sq.q.Len(), 1, math.MaxInt)
	})
	c.Bound("Endpoint.rrIdx", e.rrIdx, 0, max(len(e.active), 1))

	e.cur.state(c, e)

	buffer.ReplayList(c, p.Flits(), &e.ackQ, nil)

	// ECN windows, ascending destination order: only those that differ
	// from a fresh one are held, and decoding refuses one that does not.
	snapshot.Map(c, &e.windows, 1+1+1+1, c.I32, func(w *window) {
		snapshot.Wire64(c, &w.size)
		snapshot.Wire64(c, &w.inflight)
		c.I64(&w.lastGrow)
		if w.size == e.cfg.ECN.WindowMax && w.inflight == 0 {
			c.Failf("endpoint: an ECN window equal to a fresh one (size %d, nothing in flight) is not held", w.size)
		}
	})

	for vc := range e.rxECN {
		c.Bool(&e.rxECN[vc])
		c.Bool(&e.rxBad[vc])
	}

	if c.Present("delivery-dedup state on an endpoint", e.seen != nil) {
		snapshot.Map(c, &e.seen, 1, c.U64, func(*struct{}) {})
	}
	e.outstanding.State(c, 4+1+2, func(o *outPkt) {
		descState(c, e, &o.desc)
		c.I64(&o.birth)
		o.Timer.State(c)
	})
	e.rtxQ.Walk(c, p.Resends(), 1+1, func(it *proto.Resend) {
		c.U64(&it.PktID)
		c.U8(&it.Size)
	})
	if c.Decoding() {
		e.queuedFlits = e.backlog()
	}

	c.I64(&e.SentFlits)
	c.I64(&e.RecvFlits)
	c.I64(&e.InjectedPkts)
	c.I64(&e.DeliveredUnique)
	c.I64(&e.DupDelivered)
	c.I64(&e.Retransmits)
	c.I64(&e.Abandoned)
}

// backlog counts queuedFlits from the queues it counts: the send queues,
// the queued resends (settled ones too, until injection drops them), and
// the rest of the packet in progress.
func (e *Endpoint) backlog() (n int64) {
	sends, resends := e.Pools().Sends(), e.Pools().Resends()
	for k := range e.active {
		q := &e.active[k].q
		for j, i := 0, q.Head(); j < q.Len(); j, i = j+1, sends.Next(i) {
			n += int64(sends.Get(i).Size)
		}
	}
	q := &e.rtxQ
	for j, i := 0, q.Head(); j < q.Len(); j, i = j+1, resends.Next(i) {
		n += int64(resends.Get(i).Size)
	}
	if e.cur.active {
		n += int64(e.cur.desc.Size - e.cur.seq)
	}
	return n
}

// descState walks one packet descriptor. Its destination becomes the
// flits' Dst, which the routers index the topology by; its class indexes
// the collectors.
func descState(c *snapshot.Codec, e *Endpoint, d *proto.PktDesc) {
	c.I32(&d.Dst)
	c.Bound("PktDesc.dst", int(d.Dst), 0, e.cfg.Topo.NumEndpoints())
	c.U32(&d.MsgID)
	c.U8(&d.Size)
	c.Bound("PktDesc.size", int(d.Size), 1, proto.MaxPacketFlits+1)
	snapshot.Wire8(c, &d.Class)
	c.Bound("PktDesc.class", int(d.Class), 0, int(proto.NumClasses))
}

// state walks the packet being injected. An inactive record is
// canonicalized to its presence bit alone: after a tail flit only active
// flips off, leaving stale fields from the finished packet, and those must
// not leak into the bytes (checkpoint → restore → checkpoint byte
// identity depends on it).
func (p *curPkt) state(c *snapshot.Codec, e *Endpoint) {
	if c.Decoding() {
		*p = curPkt{}
	}
	if c.Bool(&p.active); !p.active {
		return
	}
	c.Bool(&p.retrans)
	descState(c, e, &p.desc)
	c.U64(&p.pktID)
	c.I64(&p.birth)
	c.U8(&p.seq)
	c.Bound("curPkt.seq", int(p.seq), 0, int(p.desc.Size))
}

// State walks the collector's measurements and gate. The optional sinks
// follow the snapshot (see snapshot.Opt).
func (cl *Collector) State(c *snapshot.Codec) {
	c.Section("COLL")
	c.Bool(&cl.Enabled)
	for i := range cl.LatAcc {
		cl.LatAcc[i].State(c)
		if snapshot.Opt(c, &cl.LatHist[i]) {
			cl.LatHist[i].State(c)
		}
		if snapshot.Opt(c, &cl.Series[i]) {
			cl.Series[i].State(c)
		}
		c.I64(&cl.OfferedFlits[i])
		c.I64(&cl.DeliveredFlits[i])
		c.I64(&cl.DeliveredPkts[i])
	}
	for _, n := range cl.counts() {
		c.I64(n)
	}
	cl.RecoveryAcc.State(c)
	if snapshot.Opt(c, &cl.RecoveryHist) {
		cl.RecoveryHist.State(c)
	}
}

// counts lists the collector's scalar counts once, in walk order: the
// state walk and Merge both range over it.
func (c *Collector) counts() [8]*int64 {
	return [...]*int64{&c.Acks, &c.Errors, &c.WindowShrinks, &c.DuplicatesSuppressed,
		&c.CorruptPkts, &c.EndpointRetransmits, &c.RetransAbandons, &c.RecoveredPkts}
}

// State walks every shard in fixed shard order; decoding expects a set
// built with the identical shard count.
func (s *CollectorSet) State(c *snapshot.Codec) {
	c.Section("CSET")
	if !c.Len("endpoint: collector set shards", len(s.shards), 1) {
		return
	}
	for _, sh := range s.shards {
		if sh.State(c); c.Err() != nil {
			return
		}
	}
}
