package core

import (
	"fmt"
	"sort"

	"stashsim/internal/buffer"
	"stashsim/internal/snapshot"
)

// Checkpoint hooks for the switch core. Everything here runs only at a
// serial cycle barrier (the network clamps an epoch to end on the
// checkpoint cycle), so every link staging slab is quiescent and every
// switch field is safe to walk.
//
// Link ownership: a Link is shared by its producer and consumer, so each
// link must be captured exactly once. The convention is consumer-side:
// switch input ports encode their upstream links (covering endpoint->switch
// and switch->switch edges) and endpoints encode their fromSw links
// (covering switch->endpoint edges). The network's restore walk visits
// switches and endpoints in the same order as the checkpoint walk, so the
// streams line up by construction.
//
// The link encoding is form-canonical: entries still staged in a
// partition-crossing link's slab follow the ring's in the stream, which
// is arrival order (at a barrier the staged entries are all newer than
// the ring's — see staged in link.go) and therefore exactly the ring a
// same-partition link would hold. A checkpoint serializes to the same
// bytes under any partitioning, and restore always lands in the
// canonical state: rings hold all in-flight entries, slabs are empty, and
// the network's repartition re-arms pending work from ring occupancy.

// EncodeState appends the link's in-flight flits, credits, synthesized
// credits, and fault-destruction count. Non-mutating: staged entries are
// appended to the output stream, not to the rings.
//
//stashsim:phase serial -- reads the staging slabs; runs only at a cycle barrier
func (l *Link) EncodeState(w *snapshot.Writer) {
	w.Section("LINK")
	stagedFlits := staged(&l.flitSlab)
	w.Count(l.flits.Len() + len(stagedFlits))
	for i := 0; i < l.flits.Len(); i++ {
		t := l.flits.At(i)
		w.I64(t.At)
		w.Flit(&t.Flit)
	}
	for i := range stagedFlits {
		w.I64(stagedFlits[i].At)
		w.Flit(&stagedFlits[i].Flit)
	}
	stagedCred := staged(&l.credSlab)
	w.Count(l.credits.n + len(stagedCred))
	for i := 0; i < l.credits.n; i++ {
		encodeCreditBatch(w, l.credits.at(i))
	}
	for i := range stagedCred {
		encodeCreditBatch(w, &stagedCred[i])
	}
	w.Count(l.synth.n)
	for i := 0; i < l.synth.n; i++ {
		encodeCreditBatch(w, l.synth.at(i))
	}
	w.I64(l.faultDropped)
}

// DecodeState restores the link's traffic into the canonical state: every
// in-flight entry in its ring, staging slabs empty. The delivery form is
// left alone — it belongs to the network's partitioning, not the snapshot.
//
//stashsim:phase serial -- rewrites both paths; runs only before the restored run starts
func (l *Link) DecodeState(rd *snapshot.Reader) {
	rd.Section("LINK")
	n := rd.Count(8 + 43)
	l.flits = buffer.TimedRing{}
	l.dropStaged()
	for i := 0; i < n; i++ {
		at := rd.I64()
		f := rd.Flit()
		if rd.Err() != nil {
			return
		}
		l.flits.Push(buffer.TimedFlit{At: at, Flit: f})
	}
	n = rd.Count(creditBatchWireSize)
	l.credits = timedCreditRing{}
	for i := 0; i < n; i++ {
		b := decodeCreditBatch(rd)
		if rd.Err() != nil {
			return
		}
		l.credits.push(b)
	}
	n = rd.Count(creditBatchWireSize)
	l.synth = timedCreditRing{}
	for i := 0; i < n; i++ {
		b := decodeCreditBatch(rd)
		if rd.Err() != nil {
			return
		}
		l.synth.push(b)
	}
	l.faultDropped = rd.I64()
}

// creditBatchWireSize is the serialized size of one credit batch: due
// time, per-VC reserved counts, shared count.
const creditBatchWireSize = 8 + 2*len(creditBatch{}.resv) + 2

func encodeCreditBatch(w *snapshot.Writer, b *creditBatch) {
	w.I64(b.at)
	for vc := range b.resv {
		w.U16(b.resv[vc])
	}
	w.U16(b.shared)
}

func decodeCreditBatch(rd *snapshot.Reader) creditBatch {
	var b creditBatch
	b.at = rd.I64()
	for vc := range b.resv {
		b.resv[vc] = rd.U16()
	}
	b.shared = rd.U16()
	return b
}

// EncodeState appends the switch's full dynamic state. Scratch that every
// cycle recomputes from captured state is skipped: the allocator request
// masks, the e2eEntry freelist, and the link arm masks — after restore
// they are rebuilt from ring occupancy (Rearm), which at a barrier is
// exactly what the armed bits carried.
//
//stashsim:phase serial -- walks every partition-owned structure; runs only at a cycle barrier
func (s *Switch) EncodeState(w *snapshot.Writer) {
	w.Section("SWCH")
	w.U64(s.rng.State())
	s.router.EncodeState(w)
	w.I64(s.CreditStallCycles)
	w.I64(s.created)
	encodeCounters(w, &s.Counters)
	w.U64(s.tileOcc)
	w.U64(s.muxOcc)
	w.U64(s.inActive)
	w.U64(s.outActive)
	w.Count(s.radix)
	for p := 0; p < s.radix; p++ {
		ip := &s.in[p]
		ip.link.EncodeState(w)
		ip.buf.EncodeState(w)
		for vc := range ip.latch {
			encodeRouteLatch(w, &ip.latch[vc])
		}
		ip.arbiter.EncodeState(w)
		w.Bool(ip.congested)
		w.U8(uint8(ip.sVC))
		ip.mem.EncodeState(w)

		op := &s.out[p]
		op.buf.EncodeState(w)
		for r := range op.colBufs {
			for vc := range op.colBufs[r] {
				op.colBufs[r][vc].EncodeState(w)
			}
		}
		w.I64(int64(op.colOcc))
		w.U64(op.colMask)
		for vc := range op.muxLock {
			ml := &op.muxLock[vc]
			w.U8(uint8(ml.row))
			w.U64(ml.pkt)
			w.Bool(ml.active)
		}
		op.muxArb.EncodeState(w)
		op.sendArb.EncodeState(w)
		if op.credits != nil {
			op.credits.EncodeState(w)
		}
		w.I64(int64(op.acc))
		w.I64(op.accTick)
		op.mem.EncodeState(w)

		s.stash[p].EncodeState(w)
	}
	w.Count(len(s.tiles))
	for ti := range s.tiles {
		encodeTile(w, &s.tiles[ti])
	}
	w.Count(s.sideband.n)
	for i := 0; i < s.sideband.n; i++ {
		m := &s.sideband.buf[(s.sideband.head+i)&(len(s.sideband.buf)-1)]
		w.I64(m.at)
		w.U8(uint8(m.kind))
		w.U64(m.pktID)
		w.U8(m.dst)
		w.U8(m.aux)
		w.U8(m.size)
	}
	w.Count(len(s.track))
	for port := range s.track {
		encodeTrackMap(w, s.track[port])
	}
	w.Count(len(s.retryQ))
	for i := range s.retryQ {
		r := &s.retryQ[i]
		w.I64(r.deadline)
		w.U64(r.pktID)
		w.U8(r.port)
	}
	if s.parity != nil {
		s.parity.EncodeState(w)
	}
	w.Count(len(s.reconQ))
	for i := range s.reconQ {
		r := &s.reconQ[i]
		w.I64(r.due)
		w.U64(r.pktID)
		w.U8(r.size)
		w.U8(r.origin)
		w.U8(r.target)
		w.Bool(r.buf != nil)
		if r.buf != nil {
			w.Count(len(r.buf.Flits))
			for j := range r.buf.Flits {
				w.Flit(&r.buf.Flits[j])
			}
		}
	}
}

// DecodeState restores the switch's dynamic state into a freshly built
// switch of the identical configuration.
//
//stashsim:phase serial -- rewrites every partition-owned structure; runs only before the restored run starts
func (s *Switch) DecodeState(rd *snapshot.Reader) {
	rd.Section("SWCH")
	s.rng.SetState(rd.U64())
	s.router.DecodeState(rd)
	s.CreditStallCycles = rd.I64()
	s.created = rd.I64()
	decodeCounters(rd, &s.Counters)
	s.tileOcc = rd.U64()
	s.muxOcc = rd.U64()
	s.inActive = rd.U64()
	s.outActive = rd.U64()
	if n := rd.Count(1); rd.Err() == nil && n != s.radix {
		rd.Failf("core: switch %d has radix %d, snapshot has %d", s.ID, s.radix, n)
	}
	if rd.Err() != nil {
		return
	}
	for p := 0; p < s.radix; p++ {
		ip := &s.in[p]
		ip.link.DecodeState(rd)
		ip.buf.DecodeState(rd)
		for vc := range ip.latch {
			decodeRouteLatch(rd, &ip.latch[vc])
		}
		ip.arbiter.DecodeState(rd)
		ip.congested = rd.Bool()
		ip.sVC = int8(rd.U8())
		ip.mem.DecodeState(rd)

		op := &s.out[p]
		op.buf.DecodeState(rd)
		for r := range op.colBufs {
			for vc := range op.colBufs[r] {
				op.colBufs[r][vc].DecodeState(rd)
			}
		}
		op.colOcc = int(rd.I64())
		op.colMask = rd.U64()
		for vc := range op.muxLock {
			ml := &op.muxLock[vc]
			ml.row = int8(rd.U8())
			ml.pkt = rd.U64()
			ml.active = rd.Bool()
		}
		op.muxArb.DecodeState(rd)
		op.sendArb.DecodeState(rd)
		if op.credits != nil {
			op.credits.DecodeState(rd)
		}
		op.acc = int(rd.I64())
		op.accTick = rd.I64()
		op.mem.DecodeState(rd)

		s.stash[p].DecodeState(rd)
		if rd.Err() != nil {
			return
		}
	}
	if n := rd.Count(1); rd.Err() == nil && n != len(s.tiles) {
		rd.Failf("core: switch %d has %d tiles, snapshot has %d", s.ID, len(s.tiles), n)
	}
	if rd.Err() != nil {
		return
	}
	for ti := range s.tiles {
		decodeTile(rd, &s.tiles[ti])
		if rd.Err() != nil {
			return
		}
	}
	n := rd.Count(8 + 1 + 8 + 1 + 1 + 1)
	s.sideband = sbRing{}
	for i := 0; i < n; i++ {
		var m sbMsg
		m.at = rd.I64()
		k := rd.U8()
		m.pktID = rd.U64()
		m.dst = rd.U8()
		m.aux = rd.U8()
		m.size = rd.U8()
		if rd.Err() != nil {
			return
		}
		if k > uint8(sbRetransmit) {
			rd.Failf("core: invalid side-band message kind %d", k)
			return
		}
		m.kind = sbKind(k)
		s.sideband.push(m)
	}
	if n := rd.Count(1); rd.Err() == nil && n != len(s.track) {
		rd.Failf("core: switch %d tracks %d end ports, snapshot has %d", s.ID, len(s.track), n)
	}
	if rd.Err() != nil {
		return
	}
	for port := range s.track {
		s.decodeTrackMap(rd, s.track[port])
		if rd.Err() != nil {
			return
		}
	}
	n = rd.Count(8 + 8 + 1)
	s.retryQ = s.retryQ[:0]
	for i := 0; i < n; i++ {
		var r retryRec
		r.deadline = rd.I64()
		r.pktID = rd.U64()
		r.port = rd.U8()
		if rd.Err() != nil {
			return
		}
		s.retryQ = append(s.retryQ, r)
	}
	if s.parity != nil {
		s.parity.DecodeState(rd)
		if rd.Err() != nil {
			return
		}
	}
	n = rd.Count(8 + 8 + 1 + 1 + 1 + 1)
	s.reconQ = s.reconQ[:0]
	for i := 0; i < n; i++ {
		var r reconRec
		r.due = rd.I64()
		r.pktID = rd.U64()
		r.size = rd.U8()
		r.origin = rd.U8()
		r.target = rd.U8()
		hasBuf := rd.Bool()
		if rd.Err() != nil {
			return
		}
		if int(r.target) >= s.radix {
			rd.Failf("core: reconstruction target bank %d out of range [0,%d)", r.target, s.radix)
			return
		}
		if hasBuf {
			r.buf = s.stash[r.target].DecodeRetainedPayload(rd)
			if rd.Err() != nil {
				return
			}
		}
		s.reconQ = append(s.reconQ, r)
	}
}

func encodeCounters(w *snapshot.Writer, c *Counters) {
	w.I64(c.FlitsSwitched)
	w.I64(c.FlitsSent)
	w.I64(c.StashStores)
	w.I64(c.StashRetrieves)
	w.I64(c.ECNMarks)
	w.I64(c.CongestedCycles)
	w.I64(c.StashFullStalls)
	w.I64(c.E2ETracked)
	w.I64(c.E2EDeletes)
	w.I64(c.E2ERetransmits)
	w.I64(c.SidebandMsgs)
	w.I64(c.CongStashed)
	w.I64(c.CongStashedVict)
	w.I64(c.HoLAbsorbed)
	w.I64(c.RetryTimeouts)
	w.I64(c.RetryAbandoned)
	w.I64(c.StashCopiesLost)
	w.I64(c.StashBypassed)
	w.I64(c.StashReconstructed)
	w.I64(c.StashReconFailed)
	w.I64(c.ParityGroupsSealed)
	w.I64(c.StashDegradedReads)
}

func decodeCounters(rd *snapshot.Reader, c *Counters) {
	c.FlitsSwitched = rd.I64()
	c.FlitsSent = rd.I64()
	c.StashStores = rd.I64()
	c.StashRetrieves = rd.I64()
	c.ECNMarks = rd.I64()
	c.CongestedCycles = rd.I64()
	c.StashFullStalls = rd.I64()
	c.E2ETracked = rd.I64()
	c.E2EDeletes = rd.I64()
	c.E2ERetransmits = rd.I64()
	c.SidebandMsgs = rd.I64()
	c.CongStashed = rd.I64()
	c.CongStashedVict = rd.I64()
	c.HoLAbsorbed = rd.I64()
	c.RetryTimeouts = rd.I64()
	c.RetryAbandoned = rd.I64()
	c.StashCopiesLost = rd.I64()
	c.StashBypassed = rd.I64()
	c.StashReconstructed = rd.I64()
	c.StashReconFailed = rd.I64()
	c.ParityGroupsSealed = rd.I64()
	c.StashDegradedReads = rd.I64()
}

func encodeRouteLatch(w *snapshot.Writer, l *routeLatch) {
	w.Bool(l.active)
	w.Bool(l.started)
	w.Bool(l.eject)
	w.Bool(l.redirect)
	w.U8(l.out)
	w.U8(l.vc)
	w.U8(uint8(l.stashCol))
}

func decodeRouteLatch(rd *snapshot.Reader, l *routeLatch) {
	l.active = rd.Bool()
	l.started = rd.Bool()
	l.eject = rd.Bool()
	l.redirect = rd.Bool()
	l.out = rd.U8()
	l.vc = rd.U8()
	l.stashCol = int8(rd.U8())
}

func encodeTile(w *snapshot.Writer, t *tile) {
	for i := range t.rowBufs {
		for vc := range t.rowBufs[i] {
			t.rowBufs[i][vc].EncodeState(w)
		}
	}
	t.alloc.EncodeState(w)
	for i := range t.vcNext {
		w.I64(int64(t.vcNext[i]))
	}
	for o := range t.outLock {
		for vc := range t.outLock[o] {
			w.U64(t.outLock[o][vc].pkt)
			w.Bool(t.outLock[o][vc].active)
		}
	}
	for i := range t.sLatch {
		w.U8(t.sLatch[i].port)
		w.Bool(t.sLatch[i].active)
	}
	w.I64(int64(t.occupied))
	for i := range t.slotOcc {
		w.U16(t.slotOcc[i])
	}
}

func decodeTile(rd *snapshot.Reader, t *tile) {
	for i := range t.rowBufs {
		for vc := range t.rowBufs[i] {
			t.rowBufs[i][vc].DecodeState(rd)
		}
	}
	t.alloc.DecodeState(rd)
	for i := range t.vcNext {
		t.vcNext[i] = int(rd.I64())
	}
	for o := range t.outLock {
		for vc := range t.outLock[o] {
			t.outLock[o][vc].pkt = rd.U64()
			t.outLock[o][vc].active = rd.Bool()
		}
	}
	for i := range t.sLatch {
		t.sLatch[i].port = rd.U8()
		t.sLatch[i].active = rd.Bool()
	}
	t.occupied = int(rd.I64())
	for i := range t.slotOcc {
		t.slotOcc[i] = rd.U16()
	}
}

// encodeTrackMap appends one end port's outstanding tracking entries in
// ascending packet-ID order.
func encodeTrackMap(w *snapshot.Writer, m map[uint64]*e2eEntry) {
	ids := make([]uint64, 0, len(m))
	//lint:allow determinism -- map-key collection, sorted before use
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Count(len(ids))
	for _, id := range ids {
		e := m[id]
		w.U64(id)
		w.U8(e.size)
		w.U16(uint16(e.stashPort))
		w.Bool(e.acked)
		w.Bool(e.nacked)
		w.I64(e.deadline)
		w.U8(e.retries)
		w.Bool(e.lost)
		w.Bool(e.recon)
	}
}

// decodeTrackMap restores one end port's tracking entries, drawing
// records from the entry freelist.
func (s *Switch) decodeTrackMap(rd *snapshot.Reader, m map[uint64]*e2eEntry) {
	n := rd.Count(8 + 1 + 2 + 1 + 1 + 8 + 1 + 1 + 1)
	if rd.Err() != nil {
		return
	}
	clear(m)
	for i := 0; i < n; i++ {
		id := rd.U64()
		e := s.newEntry()
		e.size = rd.U8()
		e.stashPort = int16(rd.U16())
		e.acked = rd.Bool()
		e.nacked = rd.Bool()
		e.deadline = rd.I64()
		e.retries = rd.U8()
		e.lost = rd.Bool()
		e.recon = rd.Bool()
		if rd.Err() != nil {
			return
		}
		m[id] = e
	}
}

// EncodeFingerprint appends the configuration fingerprint: a
// self-describing (name, value) pair list covering every parameter that
// shapes the simulated machine. Restore compares it positionally against
// the restoring run's configuration and reports the first differing axis.
func (c *Config) EncodeFingerprint(w *snapshot.Writer) {
	w.Section("CONF")
	pairs := c.fingerprintPairs()
	w.Count(len(pairs))
	for _, p := range pairs {
		w.Str(p[0])
		w.Str(p[1])
	}
}

// CheckFingerprint verifies the snapshot's configuration fingerprint
// against this configuration, failing the reader with a per-axis message
// on the first mismatch.
func (c *Config) CheckFingerprint(rd *snapshot.Reader) {
	rd.Section("CONF")
	pairs := c.fingerprintPairs()
	n := rd.Count(2 * 4)
	if rd.Err() != nil {
		return
	}
	if n != len(pairs) {
		rd.Failf("core: snapshot fingerprint has %d fields, this build compares %d — snapshot from a different build", n, len(pairs))
		return
	}
	for _, p := range pairs {
		name := rd.Str()
		val := rd.Str()
		if rd.Err() != nil {
			return
		}
		if name != p[0] {
			rd.Failf("core: snapshot fingerprint field %q where this build expects %q — snapshot from a different build", name, p[0])
			return
		}
		if val != p[1] {
			rd.Failf("core: config mismatch on %s: snapshot was taken with %s, this run has %s", name, val, p[1])
			return
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
