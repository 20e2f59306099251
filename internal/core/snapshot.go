package core

import (
	"fmt"

	"stashsim/internal/buffer"
	"stashsim/internal/proto"
	"stashsim/internal/snapshot"
)

// State walks for the switch core: each type's dynamic state is declared
// once, over a bidirectional snapshot.Codec. Everything here runs only at
// a serial cycle barrier (the network clamps an epoch to end on the
// checkpoint cycle) or before a restored run starts, so every link staging
// slab is quiescent and every switch field is safe to walk.
//
// Link ownership: a Link is shared by its producer and consumer, so each
// link must be walked exactly once. The convention is consumer-side:
// switch input ports walk their upstream links (covering endpoint->switch
// and switch->switch edges) and endpoints walk their fromSw links
// (covering switch->endpoint edges).
//
// The link encoding is form-canonical: entries still staged in a
// partition-crossing link's slab follow the ring's in the stream, which
// is arrival order (at a barrier the staged entries are all newer than
// the ring's — see staged in link.go) and therefore exactly the ring a
// same-partition link would hold. A checkpoint serializes to the same
// bytes under any partitioning, and restore always lands in the
// canonical state: rings hold all in-flight entries and slabs are empty.

// arrivals is one link path as the walk sees it: the ring's entries, then
// the ones still staged, which is arrival order. Decoding pushes onto the
// ring alone.
type arrivals[T any] struct {
	snapshot.FIFO[T]
	staged []T
}

func (a arrivals[T]) Len() int { return a.FIFO.Len() + len(a.staged) }

func (a arrivals[T]) At(i int) *T {
	if n := a.FIFO.Len(); i >= n {
		return &a.staged[i-n]
	}
	return a.FIFO.At(i)
}

// State walks the link's in-flight flits, credits, synthesized credits
// and fault-destruction count. Encoding does not mutate: staged entries
// go to the stream, not to the rings. Decoding lands every entry in its
// ring with the slabs empty; the delivery form is left alone — it belongs
// to the network's partitioning, not the snapshot.
//
//stashsim:phase serial -- reads the staging slabs and rewrites both paths; runs only at a cycle barrier or before the restored run starts
func (l *Link) State(c *snapshot.Codec) {
	c.Section("LINK")
	if c.Decoding() {
		l.dropStaged()
	}
	snapshot.Ring(c, arrivals[timedFlit]{l.flits.Entries(), staged(&l.flitSlab)}, 8+proto.FlitWireSize,
		func(t *timedFlit) { c.I64(&t.At); c.Flit(&t.V) })
	// One batch on the wire: due time, per-VC reserved counts, shared count.
	const batchWireSize = 8 + 2*len(creditCounts{}.resv) + 2
	batch := func(b *creditBatch) {
		c.I64(&b.At)
		for vc := range b.V.resv {
			c.U16(&b.V.resv[vc])
		}
		c.U16(&b.V.shared)
	}
	snapshot.Ring(c, arrivals[creditBatch]{l.credits.Entries(), staged(&l.credSlab)}, batchWireSize, batch)
	snapshot.Ring(c, l.synth.Entries(), batchWireSize, batch)
	c.I64(&l.faultDropped)
}

// State walks the switch's full dynamic state, into (when decoding) a
// freshly built switch of the identical configuration. Scratch that every
// cycle recomputes is not state and is marked where it is declared: the
// allocator request masks and the e2eEntry freelist. Nor are the
// counts and masks kept beside the queues: decoding pushes every queued
// flit through the path a run pushes it through, which rebuilds them.
//
//stashsim:phase serial -- walks every partition-owned structure; runs only at a cycle barrier or before the restored run starts
func (s *Switch) State(c *snapshot.Codec) {
	c.Section("SWCH")
	c.RNG(s.rng)
	s.router.State(c)
	c.I64(&s.CreditStallCycles)
	c.I64(&s.created)
	s.Counters.state(c)
	if !c.Len("core: switch ports", s.radix, 1) {
		return
	}
	for p := 0; p < s.radix && c.Err() == nil; p++ {
		s.in[p].state(c, s)
		s.out[p].state(c, s)
		s.stash[p].State(c)
	}
	for p := 0; c.Decoding() && p < s.radix; p++ {
		if s.inBusy(p) {
			s.inActive |= 1 << uint(p)
		}
		if s.outBusy(p) {
			s.outActive |= 1 << uint(p)
		}
	}
	if !c.Len("core: switch tiles", len(s.tiles), 1) {
		return
	}
	for ti := range s.tiles {
		s.tiles[ti].state(c, s)
	}
	snapshot.Ring(c, s.sideband.Entries(), 8+1+8+1+1+1, func(m *buffer.Entry[sbMsg]) {
		c.I64(&m.At)
		m.V.state(c, s)
	})
	if !c.Len("core: switch end ports", len(s.track), 1) {
		return
	}
	for port := range s.track {
		// Tracking entries in ascending packet-ID order, drawn from the
		// entry freelist when decoding.
		snapshot.Map(c, &s.track[port], 8+1+2+1+1+8+1+1+1, c.U64, func(e **e2eEntry) {
			if c.Decoding() {
				*e = s.newEntry()
			}
			(*e).state(c, s)
		})
	}
	snapshot.Slice(c, &s.retryQ, 8+8+1, func(r *retryRec) {
		c.I64(&r.deadline)
		c.U64(&r.pktID)
		c.U8(&r.port)
		c.Bound("retryRec.port", int(r.port), 0, len(s.track))
	})
	if s.parity != nil {
		s.parity.State(c)
	}
	snapshot.Slice(c, &s.reconQ, 8+8+1+1+1+1, func(r *reconRec) { r.state(c, s) })
}

func (c *Counters) state(w *snapshot.Codec) {
	for _, f := range c.fields() {
		w.I64(f)
	}
}

// fields lists every counter once, in walk order: the state walk and Add
// both range over it.
func (c *Counters) fields() [22]*int64 {
	return [...]*int64{
		&c.FlitsSwitched, &c.FlitsSent, &c.StashStores, &c.StashRetrieves,
		&c.ECNMarks, &c.CongestedCycles, &c.StashFullStalls,
		&c.E2ETracked, &c.E2EDeletes, &c.E2ERetransmits, &c.SidebandMsgs,
		&c.CongStashed, &c.CongStashedVict, &c.HoLAbsorbed,
		&c.RetryTimeouts, &c.RetryAbandoned, &c.StashCopiesLost, &c.StashBypassed,
		&c.StashReconstructed, &c.StashReconFailed, &c.ParityGroupsSealed, &c.StashDegradedReads,
	}
}

func (ip *inPort) state(c *snapshot.Codec, s *Switch) {
	ip.link.State(c)
	ip.buf.State(c)
	for vc := range ip.latch {
		// The row bus indexes tiles by the latched output's column and the
		// stash column, and stamps the latched VC on every flit it moves.
		l := &ip.latch[vc]
		c.Bool(&l.active)
		c.Bool(&l.started)
		c.Bool(&l.eject)
		c.Bool(&l.redirect)
		c.U8(&l.out)
		c.Bound("routeLatch.out", int(l.out), 0, s.radix)
		c.U8(&l.vc)
		c.Bound("routeLatch.vc", int(l.vc), 0, proto.NumVCs)
		snapshot.Wire8(c, &l.stashCol)
		c.Bound("routeLatch.stashCol", int(l.stashCol), -1, s.cfg.Cols)
	}
	ip.arbiter.State(c)
	c.Bool(&ip.congested)
	snapshot.Wire8(c, &ip.sVC)
	c.Bound("inPort.sVC", int(ip.sVC), -1, proto.NumNetVCs)
	ip.mem.State(c)
}

func (op *outPort) state(c *snapshot.Codec, s *Switch) {
	op.buf.State(c)
	for r := range op.colBufs {
		for vc := range op.colBufs[r] {
			// pushCol files a flit under its own VC.
			c.ReplayFlits(&op.colBufs[r][vc], func(f proto.Flit) {
				c.Bound("column-buffer flit.VC", int(f.VC), vc, vc+1)
				if c.Err() == nil {
					s.pushCol(op, r, f)
				}
			})
		}
	}
	for vc := range op.muxLock {
		ml := &op.muxLock[vc]
		snapshot.Wire8(c, &ml.row)
		c.Bound("muxLock.row", int(ml.row), 0, s.cfg.Rows)
		c.U64(&ml.pkt)
		c.Bool(&ml.active)
	}
	op.muxArb.State(c)
	op.sendArb.State(c)
	if op.credited {
		op.credits.State(c)
	}
	snapshot.Wire64(c, &op.acc)
	c.I64(&op.accTick)
	op.mem.State(c)
}

func (t *tile) state(c *snapshot.Codec, s *Switch) {
	for slot := range t.rowBufs {
		for stream := range t.rowBufs[slot] {
			c.ReplayFlits(&t.rowBufs[slot][stream], func(f proto.Flit) {
				// Only the storage stream holds flits whose output is still
				// pending; every other stream's Out indexes the tile outputs.
				if stream != proto.VCStore {
					c.Bound("row-buffer flit.Out", int(f.Out), 0, s.radix)
				}
				if c.Err() == nil {
					s.pushTile(t, f, slot, stream)
				}
			})
		}
	}
	t.alloc.State(c)
	for i := range t.vcNext {
		snapshot.Wire64(c, &t.vcNext[i])
		c.Bound("tile.vcNext", t.vcNext[i], 0, proto.NumVCs)
	}
	for o := range t.outLock {
		for vc := range t.outLock[o] {
			c.U64(&t.outLock[o][vc].pkt)
			c.Bool(&t.outLock[o][vc].active)
		}
	}
	for i := range t.sLatch {
		c.U8(&t.sLatch[i].port)
		c.Bound("sLatch.port", int(t.sLatch[i].port), 0, s.radix)
		c.Bool(&t.sLatch[i].active)
	}
}

// state walks one side-band message. dst indexes the tracking maps for a
// location report (it names the originating end port) and the stash pools
// for a delete or retransmit request; aux is a stash or end port.
func (m *sbMsg) state(c *snapshot.Codec, s *Switch) {
	snapshot.Wire8(c, &m.kind)
	c.Bound("sbMsg.kind", int(m.kind), 0, int(sbRetransmit)+1)
	c.U64(&m.pktID)
	c.U8(&m.dst)
	if m.kind == sbLocation {
		c.Bound("sbMsg.dst", int(m.dst), 0, len(s.track))
	} else {
		c.Bound("sbMsg.dst", int(m.dst), 0, s.radix)
	}
	c.U8(&m.aux)
	c.Bound("sbMsg.aux", int(m.aux), 0, s.radix)
	c.U8(&m.size)
}

func (e *e2eEntry) state(c *snapshot.Codec, s *Switch) {
	c.U8(&e.size)
	snapshot.Wire16(c, &e.stashPort)
	c.Bound("e2eEntry.stashPort", int(e.stashPort), -1, s.radix)
	c.Bool(&e.acked)
	c.Bool(&e.nacked)
	c.I64(&e.deadline)
	c.U8(&e.retries)
	c.Bool(&e.lost)
	c.Bool(&e.recon)
}

// state walks one in-flight reconstruction; a retained payload is rebuilt
// into the target bank's pool.
func (r *reconRec) state(c *snapshot.Codec, s *Switch) {
	c.I64(&r.due)
	c.U64(&r.pktID)
	c.U8(&r.size)
	c.U8(&r.origin)
	c.Bound("reconRec.origin", int(r.origin), 0, len(s.track))
	c.U8(&r.target)
	c.Bound("reconRec.target", int(r.target), 0, s.radix)
	has := r.buf != nil
	if c.Bool(&has); has && c.Err() == nil {
		s.stash[r.target].Payload(c, &r.buf)
	}
}

// Fingerprint walks the configuration fingerprint: a self-describing
// (name, value) pair list covering every parameter that shapes the
// simulated machine. Decoding compares it positionally against this
// configuration and fails on the first differing axis, naming it.
func (c *Config) Fingerprint(w *snapshot.Codec) {
	w.Section("CONF")
	pairs := c.fingerprintPairs()
	if !w.Len("core: snapshot from a different build: fingerprint fields", len(pairs), 2*4) {
		return
	}
	for _, p := range pairs {
		name, val := p[0], p[1]
		w.Str(&name)
		switch w.Str(&val); {
		case w.Err() != nil:
			return
		case name != p[0]:
			w.Failf("core: snapshot fingerprint field %q where this build expects %q — snapshot from a different build", name, p[0])
		case val != p[1]:
			w.Failf("core: config mismatch on %s: snapshot was taken with %s, this run has %s", name, val, p[1])
		}
	}
}

func (c *Config) fingerprintPairs() [][2]string {
	f := fmt.Sprintf
	pairs := [][2]string{
		{"topo.p", f("%d", c.Topo.P)},
		{"topo.a", f("%d", c.Topo.A)},
		{"topo.h", f("%d", c.Topo.H)},
		{"lat.endpoint", f("%d", c.Lat.Endpoint)},
		{"lat.local", f("%d", c.Lat.Local)},
		{"lat.global", f("%d", c.Lat.Global)},
		{"tiles", f("%dx%d/%dx%d", c.Rows, c.Cols, c.TileIn, c.TileOut)},
		{"buf.in", f("%d", c.InputBufFlits)},
		{"buf.out", f("%d", c.OutputBufFlits)},
		{"buf.row", f("%d", c.RowBufFlits)},
		{"buf.col", f("%d", c.ColBufFlits)},
		{"rate", f("%d/%d", c.RateNum, c.RateDen)},
		{"mode", c.Mode.String()},
		{"stash.capfrac", f("%g", c.StashCapFrac)},
		{"stash.frac.endpoint", f("%g", c.StashFracEndpoint)},
		{"stash.frac.local", f("%g", c.StashFracLocal)},
		{"stash.banks", f("%d", c.Topo.P+c.Topo.A-1)},
		{"ecn", f("%v/%g/%d/%d/%d:%d/%d", c.ECN.Enabled, c.ECN.CongestFrac, c.ECN.WindowMax,
			c.ECN.WindowFloor, c.ECN.DecreaseNum, c.ECN.DecreaseDen, c.ECN.RecoverPeriod)},
		{"route", f("%d/%d/%v", c.Route.Bias, c.Route.Threshold, c.Route.Adaptive)},
		{"sideband.lat", f("%d", c.SidebandLat)},
		{"bankmodel", f("%v", c.BankModel)},
		{"random.stash", f("%v", c.RandomStashPlacement)},
		{"retain.payload", f("%v", c.RetainPayload)},
		{"acks", f("%v", c.AcksEnabled)},
		{"error.rate", f("%g", c.ErrorRate)},
		{"retrans", f("%v/%d/%d/%d/%d/%d", c.Retrans.Enabled, c.Retrans.SwitchTimeout,
			c.Retrans.SwitchRetries, c.Retrans.EndpointTimeout, c.Retrans.EndpointRetries, c.Retrans.ScanEvery)},
		{"stash.bypass", f("%v", c.StashBypass)},
		{"stash.parity", f("%d", c.StashParity)},
		{"seed", f("%d", c.Seed)},
	}
	if c.Fault == nil {
		pairs = append(pairs, [2]string{"fault", "none"})
	} else {
		pairs = append(pairs,
			[2]string{"fault.seed", f("%d", c.Fault.Seed)},
			[2]string{"fault.droprate", f("%g", c.Fault.LinkDropRate)},
			[2]string{"fault.corruptrate", f("%g", c.Fault.CorruptRate)},
			[2]string{"fault.outages", f("%+v", c.Fault.Outages)},
			[2]string{"fault.stashfails", f("%+v", c.Fault.StashFailures)},
		)
	}
	return pairs
}
