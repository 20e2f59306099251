package buffer

import (
	"sort"

	"stashsim/internal/proto"
)

// StashPool is the per-port stashing partition: the fraction of a port's
// combined input and output buffer memory repurposed as switch-wide
// supplemental storage. Space is reserved packet-at-a-time when a packet
// wins its storage-VC column channel (join-shortest-queue uses the free
// count as the "storage VC credits" of that column), filled as flits
// arrive, and freed either by an explicit delete (end-to-end reliability)
// or by FIFO retrieval (congestion mitigation).
type StashPool struct {
	capacity int //stashsim:derived -- structural; rebuilt from the configuration
	reserved int // flits reserved by granted but not fully arrived packets
	used     int // flits physically present or committed

	// End-to-end reliability bookkeeping: the copy arriving in the pool.
	// Payload flits are discarded on arrival (the copy is never forwarded)
	// unless retainPayload is set for the retransmission extension, in which
	// case complete packets are kept in store. Retained payloads live in
	// ref-counted buffers drawn from bufs, the pool's deterministic
	// freelist: the store entry owns one reference, each retransmission
	// takes a transient one, and the buffer recycles when the last drops —
	// so steady-state retention churn allocates nothing.
	fill          copyFill
	store         map[uint64]*proto.PktBuf
	retainPayload bool //stashsim:derived -- structural; rebuilt from the configuration
	bufs          proto.BufPool

	// copies records the size of every live completed end-to-end copy,
	// maintained whether or not the payload is retained. It makes Delete
	// idempotent (a racing sideband delete after a bank failure is a
	// no-op) and lets FailBank enumerate live copies without payload.
	copies map[uint64]uint8

	// dead tracks packets whose partially-arrived copy was invalidated by
	// a bank failure: the value is the arrived-flit count so far. Their
	// remaining in-flight flits still hold reservations; PutCopy converts
	// each straggler's reservation straight into freed space and never
	// reports completion for them.
	dead map[uint64]uint8

	// parity counts the flits of XOR parity runs placed in this bank by
	// the switch's ParityTracker. Parity occupies real space — it competes
	// with copies for capacity and JSQ credits — and is accounted like a
	// resident copy: minted into Used/PresentFlits by AddParity, moved to
	// freed by DropParity.
	parity int

	// Congestion-mitigation bookkeeping: stashed packets queued for
	// retrieval in FIFO order.
	retrQ Queue[proto.Flit]

	// Conservation bookkeeping for the invariant checker: retrCopies is
	// the number of retransmission copies sitting in retrQ without owning
	// pool space (their space belongs to the retained store entry), and
	// freed is the cumulative count of flits released by Delete.
	retrCopies int
	freed      int64

	// PeakUsed tracks the high-water mark for statistics.
	PeakUsed int
}

// copyFill is the end-to-end copy a pool is filling. A pool fills one at a
// time: its flits arrive through the port's output multiplexer on the
// storage VC, whose lock admits one packet until its tail. n counts the
// flits arrived so far, zero when no copy is filling; buf collects them
// when payloads are retained.
type copyFill struct {
	id  uint64
	n   uint8
	buf *proto.PktBuf
}

// NewStashPool builds a pool with the given capacity in flits. capacity may
// be zero (global ports contribute no stash storage).
func NewStashPool(capacity int, retainPayload bool) *StashPool {
	return &StashPool{capacity: capacity, retainPayload: retainPayload}
}

// Capacity returns the pool capacity in flits.
//
//stashsim:noalloc
func (p *StashPool) Capacity() int { return p.capacity }

// Used returns the committed occupancy (reserved plus present plus
// parity) in flits.
//
//stashsim:noalloc
func (p *StashPool) Used() int { return p.used + p.reserved + p.parity }

// Reserved returns the flits committed for granted packets whose flits
// have not all arrived yet.
func (p *StashPool) Reserved() int { return p.reserved }

// Free returns the number of uncommitted flits, the quantity advertised as
// storage-VC credits for join-shortest-queue selection.
//
//stashsim:noalloc
func (p *StashPool) Free() int { return p.capacity - p.Used() }

// Reserve commits space for an entire packet of the given size. Callers
// gate on Free; Reserve panics on overflow.
//
//stashsim:noalloc
func (p *StashPool) Reserve(size int) {
	if p.Free() < size {
		panic("buffer: stash pool over-reservation")
	}
	p.reserved += size
	if p.Used() > p.PeakUsed {
		p.PeakUsed = p.Used()
	}
}

// PutCopy stores one flit of an end-to-end reliability stash copy whose
// space was previously reserved. It returns true when the flit completes
// its packet, at which point the location message should be sent to the
// originating end port. A flit of another packet while a copy is filling
// is a flow-control bug (the storage-VC lock admits one packet at a time),
// and PutCopy panics.
//
//stashsim:noalloc
func (p *StashPool) PutCopy(f proto.Flit) bool {
	p.reserved--
	if n, ok := p.dead[f.PktID]; ok {
		// Straggler of a bank-failed partial copy: its reservation becomes
		// freed space immediately and the copy never completes.
		p.freed++
		if n+1 == f.Size {
			delete(p.dead, f.PktID)
		} else {
			p.dead[f.PktID] = n + 1
		}
		return false
	}
	p.used++
	fl := &p.fill
	if fl.n == 0 {
		fl.id = f.PktID
		if p.retainPayload {
			fl.buf = p.bufs.Get()
		}
	} else if fl.id != f.PktID {
		panic("buffer: stash copy flits of two packets interleaved in one pool")
	}
	if fl.buf != nil {
		fl.buf.Flits = append(fl.buf.Flits, f)
	}
	if fl.n++; fl.n < f.Size {
		return false
	}
	if fl.buf != nil {
		if p.store == nil {
			//lint:allow allocfree -- one-time lazy init of the retention map
			p.store = make(map[uint64]*proto.PktBuf)
		}
		p.store[f.PktID] = fl.buf
	}
	*fl = copyFill{}
	if p.copies == nil {
		//lint:allow allocfree -- one-time lazy init of the live-copy map
		p.copies = make(map[uint64]uint8)
	}
	p.copies[f.PktID] = f.Size
	return true
}

// Delete frees the space of a completed stash copy (positive ACK seen at
// the originating end port). It is idempotent: deleting a copy that is
// not live — already deleted, or invalidated by a bank failure — is a
// no-op, so racing sideband messages cannot underflow the pool. It
// reports whether a copy was actually freed, so the caller can keep
// parity-group membership in sync without double-processing races.
//
//stashsim:noalloc
func (p *StashPool) Delete(pktID uint64, size int) bool {
	if _, ok := p.copies[pktID]; !ok {
		return false
	}
	delete(p.copies, pktID)
	p.used -= size
	p.freed += int64(size)
	if p.used < 0 {
		panic("buffer: stash pool delete underflow")
	}
	if p.retainPayload {
		if b := p.store[pktID]; b != nil {
			delete(p.store, pktID)
			b.Release()
		}
	}
	return true
}

// CopySize returns the flit count of a live completed copy.
//
//stashsim:noalloc
func (p *StashPool) CopySize(pktID uint64) (uint8, bool) {
	size, ok := p.copies[pktID]
	return size, ok
}

// ExtractCopy removes a live completed copy from the pool without
// releasing its retained payload: ownership of the buffer (when payloads
// are retained) transfers to the caller, which carries it through an
// in-flight parity reconstruction and either InstallCopy's it into the
// target bank or Releases it. Conservation-wise the flits are destroyed
// here (freed) and re-minted by the installer, so a copy in flight
// between banks is accounted exactly like a reconstructed one.
func (p *StashPool) ExtractCopy(pktID uint64) (*proto.PktBuf, bool) {
	size, ok := p.copies[pktID]
	if !ok {
		return nil, false
	}
	delete(p.copies, pktID)
	p.used -= int(size)
	p.freed += int64(size)
	if p.used < 0 {
		panic("buffer: stash pool extract underflow")
	}
	var b *proto.PktBuf
	if p.retainPayload {
		if b = p.store[pktID]; b != nil {
			delete(p.store, pktID)
		}
	}
	return b, true
}

// InstallCopy converts a prior Reserve into a live completed copy: the
// landing point of a parity reconstruction. The buffer, when non-nil,
// becomes the store entry (the pool takes over the caller's reference).
//
//stashsim:noalloc
func (p *StashPool) InstallCopy(pktID uint64, size int, b *proto.PktBuf) {
	p.reserved -= size
	p.used += size
	if p.reserved < 0 {
		panic("buffer: stash pool install without reservation")
	}
	if p.copies == nil {
		//lint:allow allocfree -- one-time lazy init of the live-copy map
		p.copies = make(map[uint64]uint8)
	}
	p.copies[pktID] = uint8(size)
	if b != nil && p.retainPayload {
		if p.store == nil {
			//lint:allow allocfree -- one-time lazy init of the retention map
			p.store = make(map[uint64]*proto.PktBuf)
		}
		p.store[pktID] = b
	}
}

// Unreserve releases a reservation whose copy will never arrive (an
// aborted reconstruction).
//
//stashsim:noalloc
func (p *StashPool) Unreserve(size int) {
	p.reserved -= size
	if p.reserved < 0 {
		panic("buffer: stash pool unreserve underflow")
	}
}

// AddParity commits space for a parity flit run minted by the switch's
// parity tracker. Callers gate on Free; AddParity panics on overflow.
//
//stashsim:noalloc
func (p *StashPool) AddParity(size int) {
	if p.Free() < size {
		panic("buffer: stash pool parity over-commit")
	}
	p.parity += size
	if p.Used() > p.PeakUsed {
		p.PeakUsed = p.Used()
	}
}

// DropParity destroys a parity flit run (its group emptied, dissolved,
// or its bank failed); the flits move to the freed ledger.
//
//stashsim:noalloc
func (p *StashPool) DropParity(size int) {
	p.parity -= size
	p.freed += int64(size)
	if p.parity < 0 {
		panic("buffer: stash pool parity underflow")
	}
}

// ParityFlits returns the live parity flits resident in this bank.
//
//stashsim:noalloc
func (p *StashPool) ParityFlits() int { return p.parity }

// Live reports whether a completed copy of the packet is resident.
//
//stashsim:noalloc
func (p *StashPool) Live(pktID uint64) bool {
	_, ok := p.copies[pktID]
	return ok
}

// FailBank models a stash-bank failure: every live end-to-end copy —
// completed or still arriving — is invalidated and its space freed. It
// returns the packet ids of the lost copies in ascending order, so the
// switch can mark their tracking entries and recovery can fall back to
// source-endpoint retransmission. Flits of invalidated partial copies
// still in flight inside the switch are absorbed by PutCopy via the dead
// set. Congestion-stashed packets (retrQ) model a distinct FIFO structure
// and are not affected.
func (p *StashPool) FailBank() []uint64 {
	var lost []uint64
	//lint:allow determinism -- map-key collection, sorted before use
	for id, size := range p.copies {
		lost = append(lost, id)
		p.used -= int(size)
		p.freed += int64(size)
	}
	clear(p.copies)
	fl := p.fill
	if fl.n > 0 {
		lost = append(lost, fl.id)
		p.used -= int(fl.n)
		p.freed += int64(fl.n)
		if p.dead == nil {
			p.dead = make(map[uint64]uint8)
		}
		p.dead[fl.id] = fl.n
		p.fill = copyFill{}
	}
	if p.used < 0 {
		panic("buffer: stash pool bank-failure underflow")
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	if p.retainPayload {
		// Release the retained buffers in sorted id order so the freelist
		// reuses them in a deterministic sequence.
		for _, id := range lost {
			if b := p.store[id]; b != nil {
				delete(p.store, id)
				b.Release()
			}
			if id == fl.id && fl.buf != nil {
				fl.buf.Release()
				fl.buf = nil
			}
		}
	}
	return lost
}

// TakeCopy returns the retained stash copy of a packet for retransmission
// (error-injection extension), with one reference taken for the caller.
// The store entry keeps its own reference (the space remains committed
// until the retransmitted packet is acknowledged and deleted); the caller
// reads the flits out by value and must Release the buffer when done —
// no per-retransmission payload copy is ever allocated.
//
//stashsim:noalloc
func (p *StashPool) TakeCopy(pktID uint64) (*proto.PktBuf, bool) {
	b, ok := p.store[pktID]
	if !ok {
		return nil, false
	}
	b.Retain()
	return b, true
}

// AuditRetained calls fn for every retained payload buffer (completed store
// entries and the still-filling copy). Invariant-checker use only, under
// the same quiescence rule as the link audits; visit order is unspecified,
// which is acceptable because the checker inspects every entry regardless.
func (p *StashPool) AuditRetained(fn func(pktID uint64, b *proto.PktBuf)) {
	//lint:allow determinism -- audit-only traversal, order-insensitive
	for id, b := range p.store {
		fn(id, b)
	}
	if p.fill.buf != nil {
		fn(p.fill.id, p.fill.buf)
	}
}

// RetainedBufs returns how many payload buffers the pool currently holds.
func (p *StashPool) RetainedBufs() int {
	n := len(p.store)
	if p.fill.buf != nil {
		n++
	}
	return n
}

// PutCongested stores one flit of a congestion-stashed packet. The packet
// becomes retrievable in FIFO order.
//
//stashsim:noalloc
func (p *StashPool) PutCongested(f proto.Flit) {
	p.reserved--
	p.used++
	p.retrQ.Push(f)
}

// RetrFront returns the front flit awaiting retrieval, or nil.
//
//stashsim:noalloc
func (p *StashPool) RetrFront() *proto.Flit {
	if p.retrQ.Empty() {
		return nil
	}
	return p.retrQ.Front()
}

// PushRetr queues a flit for retrieval without charging pool space. It is
// used by the retransmission extension: the retained store entry keeps
// owning the space, and the flit's FlagStashCopy marks it so RetrPop knows
// not to release anything.
//
//stashsim:noalloc
func (p *StashPool) PushRetr(f proto.Flit) {
	if f.Flags&proto.FlagStashCopy != 0 {
		p.retrCopies++
	}
	p.retrQ.Push(f)
}

// RetrPop dequeues the front retrieval flit. Congestion-stashed flits free
// their space; retransmission flits (FlagStashCopy) do not — their space is
// owned by the retained store entry — and the flag is cleared so the flit
// re-enters the network as ordinary data.
//
//stashsim:noalloc
func (p *StashPool) RetrPop() proto.Flit {
	f := p.retrQ.Pop()
	if f.Flags&proto.FlagStashCopy != 0 {
		f.Flags &^= proto.FlagStashCopy
		p.retrCopies--
		return f
	}
	p.used--
	if p.used < 0 {
		panic("buffer: stash pool retrieval underflow")
	}
	return f
}

// RetrLen returns the number of flits queued for retrieval.
//
//stashsim:noalloc
func (p *StashPool) RetrLen() int { return p.retrQ.Len() }

// PresentFlits returns the number of flits physically resident in the
// pool for the invariant checker's conservation audit: the committed
// occupancy, the parity flit runs, plus the retransmission copies queued
// in retrQ that do not own pool space. Reserved (granted but not yet
// arrived) space is excluded — those flits are still in flight inside
// the switch.
func (p *StashPool) PresentFlits() int { return p.used + p.retrCopies + p.parity }

// FreedFlits returns the cumulative number of flits released by Delete,
// the stash-side destruction term of the conservation law.
func (p *StashPool) FreedFlits() int64 { return p.freed }
