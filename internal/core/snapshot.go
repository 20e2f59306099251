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
// checkpoint cycle) or before a restored run starts, so every switch field
// is safe to walk.
//
// Link ownership: a Link is shared by its producer and consumer, so each
// of its paths must be walked exactly once, and it is walked by the switch
// whose group's pool holds it (core.Link says which that is): the flits by
// their consumer, the credits by the flits' producer. A switch's input
// ports walk the flits of their upstream links, its output ports the
// credits of their downstream links; an endpoint walks the flits of its
// fromSw link and the credits of its toSw link, and the network walks it
// beside its switch. So the walks of a group's switches, with their
// endpoints', touch the group's pools and no other group's, and restore
// decodes the groups independently.
//
// The network flushes the wire before any walk: every entry a
// worker-crossing link staged is on its path by then, so a link is its
// paths, and a checkpoint is the same bytes under any partitioning. Each
// path is walked by following its links (buffer.TimedList.Walk), each
// entry its due cycle and its value, oldest first; the pools and slot
// numbers are not state.

// FlitState walks the link's forward path, its in-flight flits;
// CreditState walks its credits and synthesized credits. The flits a fault
// dropped are counted by the link's fault state, which the injector walks.
//
//stashsim:phase serial -- rewrites the forward path; runs only at a cycle barrier or before the restored run starts
func (l *Link) FlitState(c *snapshot.Codec) {
	c.Section("LINK")
	l.flits.Walk(c, l.fp, 1+1, c.Flit)
}

// CreditState walks the link's two credit paths (see FlitState).
//
//stashsim:phase serial -- rewrites both credit paths; runs only at a cycle barrier or before the restored run starts
func (l *Link) CreditState(c *snapshot.Codec) {
	c.Section("CRED")
	credit := func(cr *proto.Credit) { creditState(c, cr) }
	for _, path := range [...]*creditPath{&l.credits, &l.synth} {
		path.Walk(c, l.cp, 1+1, credit)
	}
}

// creditState walks one credit as one byte: twice its VC, plus one for a
// shared-pool credit.
func creditState(c *snapshot.Codec, cr *proto.Credit) {
	b := cr.VC << 1
	if cr.Shared {
		b |= 1
	}
	c.U8(&b)
	c.Bound("credit.VC", int(b>>1), 0, proto.NumNetVCs)
	cr.VC, cr.Shared = b>>1, b&1 != 0
}

// State walks the switch's full dynamic state as of cycle now, the next
// to execute, into (when decoding) a freshly built switch of the identical
// configuration. Scratch that every cycle recomputes is not state and is
// marked where it is declared: the allocator request masks and the
// tracking ledger's freelist. Nor are the counts and masks kept beside
// the queues: decoding pushes every queued flit through the path a run
// pushes it through, which rebuilds them.
//
//stashsim:phase serial -- walks every partition-owned structure; runs only at a cycle barrier or before the restored run starts
func (s *Switch) State(c *snapshot.Codec, now int64) {
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
		s.out[p].state(c, s, now)
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
	s.sideband.Walk(c, &s.pools.sideband, 1+1+1+1+1+1, func(m *sbMsg) { m.state(c, s) })
	s.track.State(c, 1+1+1+1+1+1+1+2, func(e *e2eEntry) { e.state(c, s) })
	if s.parity != nil {
		s.parity.State(c)
	}
	snapshot.Slice(c, &s.reconQ, 1+1+1+1+1, func(r *reconRec) { r.state(c, s) })
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
	ip.link.FlitState(c)
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

func (op *outPort) state(c *snapshot.Codec, s *Switch, now int64) {
	op.link.CreditState(c)
	op.buf.State(c, now)
	for r := range op.colBufs {
		for vc := range op.colBufs[r] {
			// linkCol files a flit under its own VC.
			buffer.ReplayList(c, &s.pools.flits, &op.colBufs[r][vc], func(f proto.Flit) {
				c.Bound("column-buffer flit.VC", int(f.VC), vc, vc+1)
				if c.Err() == nil {
					s.linkCol(op, r, s.pools.flits.Put(f))
				}
			})
		}
	}
	c.U8(&op.muxLock)
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
			buffer.ReplayList(c, &s.pools.flits, &t.rowBufs[slot][stream], func(f proto.Flit) {
				// Only the storage stream holds flits whose output is still
				// pending; every other stream's Out indexes the tile outputs.
				if stream != proto.VCStore {
					c.Bound("row-buffer flit.Out", int(f.Out), 0, s.radix)
				}
				if c.Err() == nil {
					s.linkTile(t, s.pools.flits.Put(f), slot, stream)
				}
			})
		}
	}
	t.alloc.State(c)
	for i := range t.vcNext {
		next := int(t.vcNext[i]) // bounded before it is narrowed to the field
		snapshot.Wire64(c, &next)
		c.Bound("tile.vcNext", next, 0, proto.NumVCs)
		t.vcNext[i] = uint8(next)
	}
	for o := range t.outLock {
		c.U8(&t.outLock[o])
	}
	for i := range t.sLatch {
		c.U8(&t.sLatch[i].port)
		c.Bound("sLatch.port", int(t.sLatch[i].port), 0, s.radix)
		c.Bool(&t.sLatch[i].active)
	}
}

// state walks one side-band message. dst names the originating end port
// for a location report and indexes the stash pools for a delete or
// retransmit request; aux is a stash or end port.
func (m *sbMsg) state(c *snapshot.Codec, s *Switch) {
	snapshot.Wire8(c, &m.kind)
	c.Bound("sbMsg.kind", int(m.kind), 0, int(sbRetransmit)+1)
	c.U64(&m.pktID)
	c.U8(&m.dst)
	if m.kind == sbLocation {
		c.Bound("sbMsg.dst", int(m.dst), 0, s.cfg.Topo.P)
	} else {
		c.Bound("sbMsg.dst", int(m.dst), 0, s.radix)
	}
	c.U8(&m.aux)
	c.Bound("sbMsg.aux", int(m.aux), 0, s.radix)
	c.U8(&m.size)
}

func (e *e2eEntry) state(c *snapshot.Codec, s *Switch) {
	c.U8(&e.size)
	c.U8(&e.port)
	c.Bound("e2eEntry.port", int(e.port), 0, s.cfg.Topo.P)
	snapshot.Wire16(c, &e.stashPort)
	c.Bound("e2eEntry.stashPort", int(e.stashPort), -1, s.radix)
	c.Bool(&e.acked)
	c.Bool(&e.nacked)
	c.Bool(&e.lost)
	c.Bool(&e.recon)
	e.Timer.State(c)
}

// state walks one in-flight reconstruction; a retained payload is rebuilt
// into the target bank's pool.
func (r *reconRec) state(c *snapshot.Codec, s *Switch) {
	c.I64(&r.due)
	c.U64(&r.pktID)
	c.U8(&r.size)
	c.U8(&r.target)
	c.Bound("reconRec.target", int(r.target), 0, s.radix)
	has := !r.payload.Empty()
	if c.Bool(&has); has && c.Err() == nil {
		s.stash[r.target].Payload(c, &r.payload)
	}
}

// Fingerprint is a configuration's fingerprint: a self-describing
// (name, value) pair list covering every parameter that shapes the
// simulated machine. A network formats it once and walks the pairs it
// kept, so that a state walk formats no configuration.
type Fingerprint [][2]string

// Fingerprint returns the configuration's fingerprint.
func (c *Config) Fingerprint() Fingerprint { return c.fingerprintPairs() }

// State walks the fingerprint. Decoding compares it positionally against
// this one and fails on the first differing axis, naming it.
func (pairs Fingerprint) State(w *snapshot.Codec) {
	w.Section("CONF")
	if !w.Len("core: snapshot from a different build: fingerprint fields", len(pairs), 2*1) {
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

// fingerprintPairs lists the fingerprint. The buf.row, buf.col,
// stash.frac.* and sideband.lat pairs record Section V's fixed constants,
// which no Config can change; they stay so that the checkpoint bytes are
// those of version 8 builds in which the five were Config fields, and a
// checkpoint from either restores on the other.
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
		{"buf.row", f("%d", rowBufFlits)},
		{"buf.col", f("%d", colBufFlits)},
		{"rate", f("%d/%d", c.RateNum, c.RateDen)},
		{"mode", c.Mode.String()},
		{"stash.capfrac", f("%g", c.StashCapFrac)},
		{"stash.frac.endpoint", f("%g", stashFracEndpoint)},
		{"stash.frac.local", f("%g", stashFracLocal)},
		{"stash.banks", f("%d", c.Topo.P+c.Topo.A-1)},
		{"ecn", f("%v/%g/%d/%d/%d:%d/%d", c.ECN.Enabled, c.ECN.CongestFrac, c.ECN.WindowMax,
			c.ECN.WindowFloor, c.ECN.DecreaseNum, c.ECN.DecreaseDen, c.ECN.RecoverPeriod)},
		{"route", f("%d/%d/%v", c.Route.Bias, c.Route.Threshold, c.Route.Adaptive)},
		{"sideband.lat", f("%d", sidebandLat)},
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

// State walks the invariant checker's audit count, so a restored run
// reports as many audits as a straight one; the rest is wiring the network
// rebuilds when it builds the checker.
//
//stashsim:phase serial -- runs only at a cycle barrier or before the restored run starts
func (iv *Invariants) State(c *snapshot.Codec) { c.I64(&iv.Checks) }
