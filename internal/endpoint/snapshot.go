package endpoint

import (
	"math"

	"stashsim/internal/buffer"
	"stashsim/internal/proto"
	"stashsim/internal/snapshot"
)

// State walks for the endpoints. Link ownership is consumer-side (see
// the core package's walks): an endpoint walks its fromSw link; its toSw
// link is walked by the switch input port that consumes it. The traffic
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
			perCycle := *e.GenRNG
			perCycle.Skip(-e.drawsAhead(now))
			c.RNG(&perCycle)
		}
	}
	e.fromSw.State(c)
	e.credits.State(c)
	snapshot.Wire64(c, &e.acc)
	snapshot.Wire64(c, &e.rrIdx)
	c.U32(&e.pktSeq)

	// Active send queues, in active-list order (the list's order and the
	// rotation pointer are part of the arbitration state). Injection reads
	// the front of every listed queue, so each is non-empty and listed once.
	if c.Decoding() {
		clear(e.queues)
	}
	snapshot.Slice(c, &e.active, 4+4, func(dst *int32) {
		c.I32(dst)
		q := e.queues[*dst]
		if c.Decoding() {
			if q != nil {
				c.Failf("endpoint: destination %d listed twice among the active send queues", *dst)
			}
			q = &buffer.Queue[pktDesc]{}
			e.queues[*dst] = q
		}
		snapshot.Ring(c, q, 4+4+1+1, func(d *pktDesc) { d.state(c, e) })
		c.Bound("send queue length", q.Len(), 1, math.MaxInt)
	})
	c.Bound("Endpoint.rrIdx", e.rrIdx, 0, max(len(e.active), 1))

	e.cur.state(c, e)

	c.Flits(&e.ackQ)

	// ECN windows, ascending destination order.
	snapshot.Map(c, &e.windows, 4+8+8+8, c.I32, func(w **window) {
		if c.Decoding() {
			*w = &window{}
		}
		snapshot.Wire64(c, &(*w).size)
		snapshot.Wire64(c, &(*w).inflight)
		c.I64(&(*w).lastGrow)
	})

	for vc := range e.rxECN {
		c.Bool(&e.rxECN[vc])
		c.Bool(&e.rxBad[vc])
	}

	if c.Present("delivery-dedup state on an endpoint", e.seen != nil) {
		snapshot.Map(c, &e.seen, 8, c.U64, func(*struct{}) {})
	}
	if c.Present("retransmission state on an endpoint", e.outstanding != nil) {
		snapshot.Map(c, &e.outstanding, 8+4+4+1+1+8+8+1, c.U64, func(o **outPkt) {
			if c.Decoding() {
				*o = e.newOutPkt()
			}
			(*o).desc.state(c, e)
			c.I64(&(*o).birth)
			c.I64(&(*o).deadline)
			c.U8(&(*o).retries)
		})
	}
	snapshot.Slice(c, &e.outTimers, 8+8, func(t *epTimer) {
		c.I64(&t.deadline)
		c.U64(&t.pktID)
	})
	snapshot.Ring(c, &e.rtxQ, 8+1, func(it *rtxItem) {
		c.U64(&it.pktID)
		c.U8(&it.size)
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
	for _, dst := range e.active {
		for q, i := e.queues[dst], 0; i < q.Len(); i++ {
			n += int64(q.At(i).size)
		}
	}
	for i := 0; i < e.rtxQ.Len(); i++ {
		n += int64(e.rtxQ.At(i).size)
	}
	if e.cur.active {
		n += int64(e.cur.desc.size - e.cur.seq)
	}
	return n
}

// state walks one packet descriptor. Its destination becomes the flits'
// Dst, which the routers index the topology by; its class indexes the
// collectors.
func (d *pktDesc) state(c *snapshot.Codec, e *Endpoint) {
	c.I32(&d.dst)
	c.Bound("pktDesc.dst", int(d.dst), 0, e.cfg.Topo.NumEndpoints())
	c.U32(&d.msgID)
	c.U8(&d.size)
	c.Bound("pktDesc.size", int(d.size), 1, proto.MaxPacketFlits+1)
	snapshot.Wire8(c, &d.class)
	c.Bound("pktDesc.class", int(d.class), 0, int(proto.NumClasses))
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
	p.desc.state(c, e)
	c.U64(&p.pktID)
	c.I64(&p.birth)
	c.U8(&p.seq)
	c.Bound("curPkt.seq", int(p.seq), 0, int(p.desc.size))
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
