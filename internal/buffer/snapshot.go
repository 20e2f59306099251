package buffer

import (
	"sort"

	"stashsim/internal/proto"
	"stashsim/internal/snapshot"
)

// Checkpoint hooks for the storage structures. Structural parameters
// (capacities, VC counts, reserve quotas, parity width) are rebuilt from
// the configuration and verified, not serialized; only dynamic state is
// captured. Flits travel in the canonical proto wire encoding, so every
// decode path inherits the proto codec's range validation.

// EncodeState appends the ring's queued flits in FIFO order.
func (r *Ring) EncodeState(w *snapshot.Writer) {
	w.Count(r.n)
	for i := 0; i < r.n; i++ {
		w.Flit(r.At(i))
	}
}

// DecodeState replaces the ring's contents with the snapshot's.
func (r *Ring) DecodeState(rd *snapshot.Reader) {
	n := rd.Count(proto.FlitWireSize)
	*r = Ring{}
	for i := 0; i < n; i++ {
		f := rd.Flit()
		if rd.Err() != nil {
			return
		}
		r.Push(f)
	}
}

// EncodeState appends the DAMQ's dynamic state: per-VC queues, pool
// accounting, and the occupancy mask.
func (d *DAMQ) EncodeState(w *snapshot.Writer) {
	w.Section("DAMQ")
	w.Count(len(d.queues))
	for vc := range d.queues {
		d.queues[vc].EncodeState(w)
	}
	for vc := range d.resvUsed {
		w.I64(int64(d.resvUsed[vc]))
	}
	w.I64(int64(d.shared))
	w.I64(int64(d.used))
	w.U32(d.occupied)
}

// DecodeState restores the DAMQ's dynamic state into a buffer built with
// the identical structural parameters.
func (d *DAMQ) DecodeState(rd *snapshot.Reader) {
	rd.Section("DAMQ")
	if n := rd.Count(4); rd.Err() == nil && n != len(d.queues) {
		rd.Failf("buffer: DAMQ has %d VCs, snapshot has %d", len(d.queues), n)
	}
	if rd.Err() != nil {
		return
	}
	for vc := range d.queues {
		d.queues[vc].DecodeState(rd)
	}
	for vc := range d.resvUsed {
		d.resvUsed[vc] = int(rd.I64())
	}
	d.shared = int(rd.I64())
	d.used = int(rd.I64())
	d.occupied = rd.U32()
}

// EncodeState appends the credit counter's free-credit state.
func (c *CreditCounter) EncodeState(w *snapshot.Writer) {
	w.Count(len(c.resvFree))
	for vc := range c.resvFree {
		w.I64(int64(c.resvFree[vc]))
	}
	w.I64(int64(c.shared))
}

// DecodeState restores the credit counter's free-credit state.
func (c *CreditCounter) DecodeState(rd *snapshot.Reader) {
	if n := rd.Count(8); rd.Err() == nil && n != len(c.resvFree) {
		rd.Failf("buffer: credit counter has %d VCs, snapshot has %d", len(c.resvFree), n)
	}
	if rd.Err() != nil {
		return
	}
	for vc := range c.resvFree {
		c.resvFree[vc] = int(rd.I64())
	}
	c.shared = int(rd.I64())
}

// EncodeState appends the output buffer's dynamic state; the retention
// window is its release deadlines.
func (b *OutBuf) EncodeState(w *snapshot.Writer) {
	w.Section("OUTB")
	w.Count(len(b.queues))
	for vc := range b.queues {
		b.queues[vc].EncodeState(w)
	}
	w.I64(int64(b.queued))
	w.U32(b.occupied)
	w.Count(b.inflight.n)
	for i := 0; i < b.inflight.n; i++ {
		w.I64(b.inflight.at(i))
	}
}

// DecodeState restores the output buffer's dynamic state.
func (b *OutBuf) DecodeState(rd *snapshot.Reader) {
	rd.Section("OUTB")
	if n := rd.Count(4); rd.Err() == nil && n != len(b.queues) {
		rd.Failf("buffer: output buffer has %d VCs, snapshot has %d", len(b.queues), n)
	}
	if rd.Err() != nil {
		return
	}
	for vc := range b.queues {
		b.queues[vc].DecodeState(rd)
	}
	b.queued = int(rd.I64())
	b.occupied = rd.U32()
	n := rd.Count(8)
	b.inflight = deadlineRing{}
	for i := 0; i < n; i++ {
		b.inflight.push(rd.I64())
	}
}

// sortedIDs collects a size map's keys in ascending order.
func sortedIDs(m map[uint64]uint8) []uint64 {
	ids := make([]uint64, 0, len(m))
	//lint:allow determinism -- map-key collection, sorted before use
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// encodeSizeMap appends a pktID -> flit-count map in ascending id order.
func encodeSizeMap(w *snapshot.Writer, m map[uint64]uint8) {
	ids := sortedIDs(m)
	w.Count(len(ids))
	for _, id := range ids {
		w.U64(id)
		w.U8(m[id])
	}
}

// decodeSizeMap restores a pktID -> flit-count map (nil when empty, like
// the lazily-allocated live maps).
func decodeSizeMap(rd *snapshot.Reader) map[uint64]uint8 {
	n := rd.Count(9)
	if rd.Err() != nil || n == 0 {
		return nil
	}
	m := make(map[uint64]uint8, n)
	for i := 0; i < n; i++ {
		id := rd.U64()
		m[id] = rd.U8()
	}
	return m
}

// encodeBufMap appends a pktID -> retained-payload map in ascending id
// order, payload flits in the canonical wire encoding.
func encodeBufMap(w *snapshot.Writer, m map[uint64]*proto.PktBuf) {
	ids := make([]uint64, 0, len(m))
	//lint:allow determinism -- map-key collection, sorted before use
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Count(len(ids))
	for _, id := range ids {
		b := m[id]
		w.U64(id)
		w.Count(len(b.Flits))
		for i := range b.Flits {
			w.Flit(&b.Flits[i])
		}
	}
}

// decodeBufMap restores a retained-payload map, drawing fresh buffers
// from the pool's freelist (each map entry owns exactly one reference at
// a cycle barrier — transient retransmission references never span one).
func (p *StashPool) decodeBufMap(rd *snapshot.Reader) map[uint64]*proto.PktBuf {
	n := rd.Count(12)
	if rd.Err() != nil || n == 0 {
		return nil
	}
	m := make(map[uint64]*proto.PktBuf, n)
	for i := 0; i < n; i++ {
		id := rd.U64()
		k := rd.Count(proto.FlitWireSize)
		if k > proto.MaxPacketFlits {
			rd.Failf("buffer: retained payload of %d flits exceeds the %d-flit packet bound", k, proto.MaxPacketFlits)
			return m
		}
		b := p.bufs.Get()
		for j := 0; j < k; j++ {
			f := rd.Flit()
			if rd.Err() != nil {
				return m
			}
			b.Flits = append(b.Flits, f)
		}
		m[id] = b
	}
	return m
}

// DecodeRetainedPayload restores one retained payload — a flit count
// followed by canonical wire flits — into a fresh buffer drawn from this
// pool's freelist. Used for in-flight reconstruction records, whose
// payloads are rebuilt into the target bank's pool.
func (p *StashPool) DecodeRetainedPayload(rd *snapshot.Reader) *proto.PktBuf {
	k := rd.Count(proto.FlitWireSize)
	if rd.Err() != nil {
		return nil
	}
	if k > proto.MaxPacketFlits {
		rd.Failf("buffer: retained payload of %d flits exceeds the %d-flit packet bound", k, proto.MaxPacketFlits)
		return nil
	}
	b := p.bufs.Get()
	for j := 0; j < k; j++ {
		f := rd.Flit()
		if rd.Err() != nil {
			return b
		}
		b.Flits = append(b.Flits, f)
	}
	return b
}

// EncodeState appends the stash pool's dynamic state.
func (p *StashPool) EncodeState(w *snapshot.Writer) {
	w.Section("STSH")
	w.I64(int64(p.reserved))
	w.I64(int64(p.used))
	w.I64(int64(p.parity))
	w.I64(int64(p.retrCopies))
	w.I64(p.freed)
	w.I64(int64(p.PeakUsed))
	encodeSizeMap(w, p.arrived)
	encodeSizeMap(w, p.copies)
	encodeSizeMap(w, p.dead)
	encodeBufMap(w, p.store)
	encodeBufMap(w, p.partial)
	p.retrQ.EncodeState(w)
}

// DecodeState restores the stash pool's dynamic state into a fresh pool
// built with the identical capacity and retention setting.
func (p *StashPool) DecodeState(rd *snapshot.Reader) {
	rd.Section("STSH")
	p.reserved = int(rd.I64())
	p.used = int(rd.I64())
	p.parity = int(rd.I64())
	p.retrCopies = int(rd.I64())
	p.freed = rd.I64()
	p.PeakUsed = int(rd.I64())
	if m := decodeSizeMap(rd); m != nil {
		p.arrived = m
	} else if rd.Err() == nil {
		clear(p.arrived)
	}
	p.copies = decodeSizeMap(rd)
	p.dead = decodeSizeMap(rd)
	p.store = p.decodeBufMap(rd)
	p.partial = p.decodeBufMap(rd)
	p.retrQ.DecodeState(rd)
}

// EncodeState appends the parity tracker's dynamic state: the full group
// slab (slot recycling order is behaviorally significant — FailCandidates
// and the audit walk it in slab order, and freeG's LIFO order decides
// which slot the next group reuses), the free/open/seal lists, and the
// cumulative counters. byPkt is derivable from live members and rebuilt
// on decode.
func (t *ParityTracker) EncodeState(w *snapshot.Writer) {
	w.Section("PRTY")
	w.Count(len(t.groups))
	for gi := range t.groups {
		g := &t.groups[gi]
		w.U8(g.n)
		w.U8(g.state)
		w.U64(g.bankSet)
		w.U16(uint16(g.parityBank))
		w.U8(g.paritySize)
		for i := 0; i < int(g.n); i++ {
			m := &g.members[i]
			w.U64(m.pktID)
			w.U8(m.size)
			w.U16(uint16(m.bank))
		}
	}
	encodeIdxList(w, t.freeG)
	encodeIdxList(w, t.openG)
	encodeIdxList(w, t.sealQ)
	w.I64(t.SealedGroups)
	w.I64(t.SealsDeferred)
	w.I64(t.GroupsDissolved)
}

// DecodeState restores the parity tracker's dynamic state.
func (t *ParityTracker) DecodeState(rd *snapshot.Reader) {
	rd.Section("PRTY")
	n := rd.Count(13)
	if rd.Err() != nil {
		return
	}
	t.groups = make([]parityGroup, n)
	clear(t.byPkt)
	for gi := range t.groups {
		g := &t.groups[gi]
		g.n = rd.U8()
		g.state = rd.U8()
		g.bankSet = rd.U64()
		g.parityBank = int16(rd.U16())
		g.paritySize = rd.U8()
		if rd.Err() != nil {
			return
		}
		if int(g.n) > MaxParityWidth {
			rd.Failf("buffer: parity group with %d members exceeds width bound %d", g.n, MaxParityWidth)
			return
		}
		if g.state > gSealed {
			rd.Failf("buffer: invalid parity group state %d", g.state)
			return
		}
		for i := 0; i < int(g.n); i++ {
			m := &g.members[i]
			m.pktID = rd.U64()
			m.size = rd.U8()
			m.bank = int16(rd.U16())
		}
		if g.state != gFree {
			for i := 0; i < int(g.n); i++ {
				t.byPkt[g.members[i].pktID] = int32(gi)
			}
		}
	}
	t.freeG = t.decodeIdxList(rd, t.freeG)
	t.openG = t.decodeIdxList(rd, t.openG)
	t.sealQ = t.decodeIdxList(rd, t.sealQ)
	t.SealedGroups = rd.I64()
	t.SealsDeferred = rd.I64()
	t.GroupsDissolved = rd.I64()
}

// encodeIdxList appends one group-index list.
func encodeIdxList(w *snapshot.Writer, l []int32) {
	w.Count(len(l))
	for _, gi := range l {
		w.U32(uint32(gi))
	}
}

// decodeIdxList restores one group-index list, validating every entry
// against the slab size.
func (t *ParityTracker) decodeIdxList(rd *snapshot.Reader, into []int32) []int32 {
	n := rd.Count(4)
	if rd.Err() != nil {
		return into[:0]
	}
	out := into[:0]
	for i := 0; i < n; i++ {
		gi := rd.U32()
		if int(gi) >= len(t.groups) {
			rd.Failf("buffer: parity group index %d out of range [0,%d)", gi, len(t.groups))
			return out
		}
		out = append(out, int32(gi))
	}
	return out
}

// EncodeState appends the banked-memory admission gate's dynamic state.
func (m *BankedMem) EncodeState(w *snapshot.Writer) {
	for i := range m.parity {
		w.U8(m.parity[i])
	}
	w.Bool(m.taken[0])
	w.Bool(m.taken[1])
	w.I64(m.cycle)
	w.I64(m.Conflicts)
	w.I64(m.Accesses)
}

// DecodeState restores the banked-memory admission gate's dynamic state.
func (m *BankedMem) DecodeState(rd *snapshot.Reader) {
	for i := range m.parity {
		m.parity[i] = rd.U8()
	}
	m.taken[0] = rd.Bool()
	m.taken[1] = rd.Bool()
	m.cycle = rd.I64()
	m.Conflicts = rd.I64()
	m.Accesses = rd.I64()
}
