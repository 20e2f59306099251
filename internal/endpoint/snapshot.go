package endpoint

import (
	"sort"

	"stashsim/internal/proto"
	"stashsim/internal/snapshot"
	"stashsim/internal/stats"
)

// Checkpoint hooks for the endpoints. Link ownership is consumer-side
// (see the core package's snapshot hooks): an endpoint captures its
// fromSw link; its toSw link is captured by the switch input port that
// consumes it. The traffic generator closure itself is rebuilt by the
// harness; only its RNG stream (GenRNG) is carried across a restart.

// EncodeState appends the endpoint's full dynamic state.
//
//stashsim:phase serial -- walks partition-owned queues and maps; runs only at a cycle barrier
func (e *Endpoint) EncodeState(w *snapshot.Writer) {
	w.Section("ENDP")
	w.U64(e.rng.State())
	w.Bool(e.GenRNG != nil)
	if e.GenRNG != nil {
		w.U64(e.GenRNG.State())
	}
	e.fromSw.EncodeState(w)
	e.credits.EncodeState(w)
	w.I64(int64(e.acc))
	w.I64(int64(e.rrIdx))
	w.I64(e.queuedFlits)
	w.U32(e.pktSeq)

	// Active send queues, in active-list order (the list's order and the
	// rotation pointer are part of the arbitration state).
	w.Count(len(e.active))
	for _, dst := range e.active {
		w.I32(dst)
		q := e.queues[dst]
		w.Count(q.len())
		for i := q.head; i < len(q.pkts); i++ {
			encodePktDesc(w, &q.pkts[i])
		}
	}

	encodeCurPkt(w, &e.cur)

	w.Count(len(e.ackQ) - e.ackHead)
	for i := e.ackHead; i < len(e.ackQ); i++ {
		w.Flit(&e.ackQ[i])
	}

	// ECN windows, ascending destination order.
	dsts := make([]int32, 0, len(e.windows))
	//lint:allow determinism -- map-key collection, sorted before use
	for dst := range e.windows {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	w.Count(len(dsts))
	for _, dst := range dsts {
		win := e.windows[dst]
		w.I32(dst)
		w.I64(int64(win.size))
		w.I64(int64(win.inflight))
		w.I64(win.lastGrow)
	}

	for vc := range e.rxECN {
		w.Bool(e.rxECN[vc])
		w.Bool(e.rxBad[vc])
	}

	w.Bool(e.seen != nil)
	if e.seen != nil {
		ids := make([]uint64, 0, len(e.seen))
		//lint:allow determinism -- map-key collection, sorted before use
		for id := range e.seen {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		w.Count(len(ids))
		for _, id := range ids {
			w.U64(id)
		}
	}

	w.Bool(e.outstanding != nil)
	if e.outstanding != nil {
		ids := make([]uint64, 0, len(e.outstanding))
		//lint:allow determinism -- map-key collection, sorted before use
		for id := range e.outstanding {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		w.Count(len(ids))
		for _, id := range ids {
			o := e.outstanding[id]
			w.U64(id)
			encodePktDesc(w, &o.desc)
			w.I64(o.birth)
			w.I64(o.deadline)
			w.U8(o.retries)
		}
	}
	w.Count(len(e.outTimers))
	for i := range e.outTimers {
		w.I64(e.outTimers[i].deadline)
		w.U64(e.outTimers[i].pktID)
	}
	w.Count(len(e.rtxQ) - e.rtxHead)
	for i := e.rtxHead; i < len(e.rtxQ); i++ {
		w.U64(e.rtxQ[i].pktID)
		w.U8(e.rtxQ[i].size)
	}

	w.I64(e.SentFlits)
	w.I64(e.RecvFlits)
	w.I64(e.InjectedPkts)
	w.I64(e.DeliveredUnique)
	w.I64(e.DupDelivered)
	w.I64(e.Retransmits)
	w.I64(e.Abandoned)
}

// DecodeState restores the endpoint's dynamic state into a freshly built
// endpoint of the identical configuration.
//
//stashsim:phase serial -- rewrites partition-owned queues and maps; runs only before the restored run starts
func (e *Endpoint) DecodeState(rd *snapshot.Reader) {
	rd.Section("ENDP")
	e.rng.SetState(rd.U64())
	hasGen := rd.Bool()
	if rd.Err() != nil {
		return
	}
	if hasGen != (e.GenRNG != nil) {
		if hasGen {
			rd.Failf("endpoint: snapshot carries a traffic generator RNG for endpoint %d, this run has none", e.ID)
		} else {
			rd.Failf("endpoint: this run has a traffic generator RNG for endpoint %d, snapshot has none", e.ID)
		}
		return
	}
	if hasGen {
		e.GenRNG.SetState(rd.U64())
	}
	e.fromSw.DecodeState(rd)
	e.credits.DecodeState(rd)
	e.acc = int(rd.I64())
	e.rrIdx = int(rd.I64())
	e.queuedFlits = rd.I64()
	e.pktSeq = rd.U32()

	n := rd.Count(4 + 4)
	if rd.Err() != nil {
		return
	}
	clear(e.queues)
	e.active = e.active[:0]
	for i := 0; i < n; i++ {
		dst := rd.I32()
		k := rd.Count(4 + 4 + 1 + 1)
		if rd.Err() != nil {
			return
		}
		q := &sendQ{pkts: make([]pktDesc, 0, k)}
		for j := 0; j < k; j++ {
			d, ok := decodePktDesc(rd)
			if !ok {
				return
			}
			q.pkts = append(q.pkts, d)
		}
		e.queues[dst] = q
		e.active = append(e.active, dst)
	}

	if !decodeCurPkt(rd, &e.cur) {
		return
	}

	n = rd.Count(proto.FlitWireSize)
	e.ackQ = e.ackQ[:0]
	e.ackHead = 0
	for i := 0; i < n; i++ {
		f := rd.Flit()
		if rd.Err() != nil {
			return
		}
		e.ackQ = append(e.ackQ, f)
	}

	n = rd.Count(4 + 8 + 8 + 8)
	if rd.Err() != nil {
		return
	}
	clear(e.windows)
	for i := 0; i < n; i++ {
		dst := rd.I32()
		win := &window{}
		win.size = int(rd.I64())
		win.inflight = int(rd.I64())
		win.lastGrow = rd.I64()
		if rd.Err() != nil {
			return
		}
		e.windows[dst] = win
	}

	for vc := range e.rxECN {
		e.rxECN[vc] = rd.Bool()
		e.rxBad[vc] = rd.Bool()
	}

	hasSeen := rd.Bool()
	if rd.Err() != nil {
		return
	}
	if hasSeen != (e.seen != nil) {
		rd.Failf("endpoint: delivery-dedup state presence differs between snapshot and this run for endpoint %d", e.ID)
		return
	}
	if hasSeen {
		n = rd.Count(8)
		if rd.Err() != nil {
			return
		}
		clear(e.seen)
		for i := 0; i < n; i++ {
			e.seen[rd.U64()] = struct{}{}
		}
	}

	hasOut := rd.Bool()
	if rd.Err() != nil {
		return
	}
	if hasOut != (e.outstanding != nil) {
		rd.Failf("endpoint: retransmission state presence differs between snapshot and this run for endpoint %d", e.ID)
		return
	}
	if hasOut {
		n = rd.Count(8 + 4 + 4 + 1 + 1 + 8 + 8 + 1)
		if rd.Err() != nil {
			return
		}
		clear(e.outstanding)
		for i := 0; i < n; i++ {
			id := rd.U64()
			o := e.newOutPkt()
			d, ok := decodePktDesc(rd)
			if !ok {
				return
			}
			o.desc = d
			o.birth = rd.I64()
			o.deadline = rd.I64()
			o.retries = rd.U8()
			if rd.Err() != nil {
				return
			}
			e.outstanding[id] = o
		}
	}
	n = rd.Count(8 + 8)
	e.outTimers = e.outTimers[:0]
	for i := 0; i < n; i++ {
		var t epTimer
		t.deadline = rd.I64()
		t.pktID = rd.U64()
		if rd.Err() != nil {
			return
		}
		e.outTimers = append(e.outTimers, t)
	}
	n = rd.Count(8 + 1)
	e.rtxQ = e.rtxQ[:0]
	e.rtxHead = 0
	for i := 0; i < n; i++ {
		var it rtxItem
		it.pktID = rd.U64()
		it.size = rd.U8()
		if rd.Err() != nil {
			return
		}
		e.rtxQ = append(e.rtxQ, it)
	}

	e.SentFlits = rd.I64()
	e.RecvFlits = rd.I64()
	e.InjectedPkts = rd.I64()
	e.DeliveredUnique = rd.I64()
	e.DupDelivered = rd.I64()
	e.Retransmits = rd.I64()
	e.Abandoned = rd.I64()
}

func encodePktDesc(w *snapshot.Writer, d *pktDesc) {
	w.I32(d.dst)
	w.U32(d.msgID)
	w.U8(d.size)
	w.U8(uint8(d.class))
}

func decodePktDesc(rd *snapshot.Reader) (pktDesc, bool) {
	var d pktDesc
	d.dst = rd.I32()
	d.msgID = rd.U32()
	d.size = rd.U8()
	c := rd.U8()
	if rd.Err() != nil {
		return d, false
	}
	if c >= uint8(proto.NumClasses) {
		rd.Failf("endpoint: packet descriptor class %d out of range [0,%d)", c, proto.NumClasses)
		return d, false
	}
	if d.size == 0 || d.size > proto.MaxPacketFlits {
		rd.Failf("endpoint: packet descriptor size %d outside [1,%d]", d.size, proto.MaxPacketFlits)
		return d, false
	}
	d.class = proto.Class(c)
	return d, true
}

// encodeCurPkt canonicalizes an inactive record to its presence bit
// alone: after a tail flit only active flips off, leaving stale fields
// from the finished packet, and those must not leak into the bytes
// (checkpoint → restore → checkpoint byte identity depends on it).
func encodeCurPkt(w *snapshot.Writer, c *curPkt) {
	w.Bool(c.active)
	if !c.active {
		return
	}
	w.Bool(c.retrans)
	encodePktDesc(w, &c.desc)
	w.U64(c.pktID)
	w.I64(c.birth)
	w.U8(c.seq)
}

func decodeCurPkt(rd *snapshot.Reader, c *curPkt) bool {
	*c = curPkt{}
	c.active = rd.Bool()
	if !c.active {
		return rd.Err() == nil
	}
	c.retrans = rd.Bool()
	d, ok := decodePktDesc(rd)
	if !ok {
		return false
	}
	c.desc = d
	c.pktID = rd.U64()
	c.birth = rd.I64()
	c.seq = rd.U8()
	return rd.Err() == nil
}

// EncodeState appends the collector's measurements and gate.
func (c *Collector) EncodeState(w *snapshot.Writer) {
	w.Section("COLL")
	w.Bool(c.Enabled)
	for i := range c.LatAcc {
		c.LatAcc[i].EncodeState(w)
		w.Bool(c.LatHist[i] != nil)
		if c.LatHist[i] != nil {
			c.LatHist[i].EncodeState(w)
		}
		w.Bool(c.Series[i] != nil)
		if c.Series[i] != nil {
			c.Series[i].EncodeState(w)
		}
		w.I64(c.OfferedFlits[i])
		w.I64(c.DeliveredFlits[i])
		w.I64(c.DeliveredPkts[i])
	}
	w.I64(c.Acks)
	w.I64(c.Errors)
	w.I64(c.WindowShrinks)
	w.I64(c.DuplicatesSuppressed)
	w.I64(c.CorruptPkts)
	w.I64(c.EndpointRetransmits)
	w.I64(c.RetransAbandons)
	w.I64(c.RecoveredPkts)
	c.RecoveryAcc.EncodeState(w)
	w.Bool(c.RecoveryHist != nil)
	if c.RecoveryHist != nil {
		c.RecoveryHist.EncodeState(w)
	}
}

// DecodeState restores the collector's measurements. Optional sinks are
// allocated on demand so a restored run records into the same shapes the
// checkpointed run had.
func (c *Collector) DecodeState(rd *snapshot.Reader) {
	rd.Section("COLL")
	c.Enabled = rd.Bool()
	for i := range c.LatAcc {
		c.LatAcc[i].DecodeState(rd)
		if rd.Bool() {
			if c.LatHist[i] == nil {
				c.LatHist[i] = &stats.Hist{}
			}
			c.LatHist[i].DecodeState(rd)
		} else {
			c.LatHist[i] = nil
		}
		if rd.Bool() {
			if c.Series[i] == nil {
				c.Series[i] = &stats.TimeSeries{}
			}
			c.Series[i].DecodeState(rd)
		} else {
			c.Series[i] = nil
		}
		c.OfferedFlits[i] = rd.I64()
		c.DeliveredFlits[i] = rd.I64()
		c.DeliveredPkts[i] = rd.I64()
		if rd.Err() != nil {
			return
		}
	}
	c.Acks = rd.I64()
	c.Errors = rd.I64()
	c.WindowShrinks = rd.I64()
	c.DuplicatesSuppressed = rd.I64()
	c.CorruptPkts = rd.I64()
	c.EndpointRetransmits = rd.I64()
	c.RetransAbandons = rd.I64()
	c.RecoveredPkts = rd.I64()
	c.RecoveryAcc.DecodeState(rd)
	if rd.Bool() {
		if c.RecoveryHist == nil {
			c.RecoveryHist = &stats.Hist{}
		}
		c.RecoveryHist.DecodeState(rd)
	} else {
		c.RecoveryHist = nil
	}
}

// EncodeState appends every shard in fixed shard order.
func (s *CollectorSet) EncodeState(w *snapshot.Writer) {
	w.Section("CSET")
	w.Count(len(s.shards))
	for _, sh := range s.shards {
		sh.EncodeState(w)
	}
}

// DecodeState restores every shard of a set built with the identical
// shard count.
func (s *CollectorSet) DecodeState(rd *snapshot.Reader) {
	rd.Section("CSET")
	if n := rd.Count(1); rd.Err() == nil && n != len(s.shards) {
		rd.Failf("endpoint: collector set has %d shards, snapshot has %d", len(s.shards), n)
	}
	if rd.Err() != nil {
		return
	}
	for _, sh := range s.shards {
		sh.DecodeState(rd)
		if rd.Err() != nil {
			return
		}
	}
}
