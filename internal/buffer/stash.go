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
	// case a complete copy keeps its flits as a list in flits, the switch's
	// flit pool, like every other queue of the switch.
	fill          copyFill
	retainPayload bool //stashsim:derived -- structural; rebuilt from the configuration

	// copies holds every live completed end-to-end copy by packet ID. It
	// makes Delete idempotent (a racing sideband delete after a bank
	// failure is a no-op) and lets FailBank enumerate the live copies.
	copies map[uint64]liveCopy

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
	// retrieval in FIFO order, in the slots of flits.
	retrQ FlitList
	flits *FlitPool //stashsim:derived -- wiring: the owner's flit pool, which every list of the pool draws from

	// Conservation bookkeeping for the invariant checker: retrCopies is
	// the number of retransmission copies sitting in retrQ without owning
	// pool space (their space belongs to the live copy they retransmit),
	// and freed is the cumulative count of flits released by Delete.
	retrCopies int
	freed      int64

	// PeakUsed tracks the high-water mark for statistics.
	PeakUsed int

	// auditEntry is the copy of a retained payload AuditLists hands to
	// visit: a map value has no address, and a local copy would escape to
	// the heap once per entry and audit.
	auditEntry FlitList //stashsim:transient -- AuditLists' scratch
}

// liveCopy is one live completed end-to-end copy: its size in flits and,
// when payloads are retained, its flits.
type liveCopy struct {
	size    uint8
	payload FlitList
}

// copyFill is the end-to-end copy a pool is filling. A pool fills one at a
// time: its flits arrive through the port's output multiplexer on the
// storage VC, whose lock admits one packet until its tail. n counts the
// flits arrived so far, zero when no copy is filling; payload collects
// them when payloads are retained.
type copyFill struct {
	id      uint64
	n       uint8
	payload FlitList
}

// NewStashPool builds a pool with the given capacity in flits, over a flit
// pool of its own. capacity may be zero (global ports contribute no stash
// storage).
func NewStashPool(capacity int, retainPayload bool) *StashPool {
	return NewStashPoolIn(new(FlitPool), capacity, retainPayload)
}

// NewStashPoolIn builds a pool as NewStashPool does, whose retrieval queue
// and retained payloads hold their flits in flits, the owning switch's
// pool.
func NewStashPoolIn(flits *FlitPool, capacity int, retainPayload bool) *StashPool {
	return &StashPool{flits: flits, capacity: capacity, retainPayload: retainPayload}
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
func (p *StashPool) PutCopy(f proto.Flit) bool { return p.LinkCopy(p.flits.Put(f)) }

// LinkCopy stores the end-to-end copy flit in slot i of the pool's flit
// pool, unlinked from a column buffer, as PutCopy does: the slot moves onto
// the filling payload when payloads are retained and is freed otherwise.
//
//stashsim:noalloc
func (p *StashPool) LinkCopy(i int32) bool {
	f := p.flits.Get(i)
	id, size := f.PktID, f.Size
	p.reserved--
	if n, ok := p.dead[id]; ok {
		// Straggler of a bank-failed partial copy: its reservation becomes
		// freed space immediately and the copy never completes.
		p.flits.Take(i)
		p.freed++
		if n+1 == size {
			delete(p.dead, id)
		} else {
			p.dead[id] = n + 1
		}
		return false
	}
	p.used++
	fl := &p.fill
	if fl.n == 0 {
		fl.id = id
	} else if fl.id != id {
		panic("buffer: stash copy flits of two packets interleaved in one pool")
	}
	if p.retainPayload {
		fl.payload.Link(p.flits, i)
	} else {
		p.flits.Take(i)
	}
	if fl.n++; fl.n < size {
		return false
	}
	if p.copies == nil {
		//lint:allow allocfree -- one-time lazy init of the live-copy map
		p.copies = make(map[uint64]liveCopy)
	}
	p.copies[id] = liveCopy{size: size, payload: fl.payload}
	*fl = copyFill{}
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
	c, ok := p.copies[pktID]
	if !ok {
		return false
	}
	delete(p.copies, pktID)
	p.used -= size
	p.freed += int64(size)
	if p.used < 0 {
		panic("buffer: stash pool delete underflow")
	}
	c.payload.Reset(p.flits)
	return true
}

// CopySize returns the flit count of a live completed copy.
//
//stashsim:noalloc
func (p *StashPool) CopySize(pktID uint64) (uint8, bool) {
	c, ok := p.copies[pktID]
	return c.size, ok
}

// ExtractCopy removes a live completed copy from the pool without freeing
// its retained payload: the list (empty when payloads are not retained)
// passes to the caller, which carries it through an in-flight parity
// reconstruction and either InstallCopy's it into the target bank or
// frees its slots. Conservation-wise the flits are destroyed here (freed)
// and re-minted by the installer, so a copy in flight between banks is
// accounted exactly like a reconstructed one.
func (p *StashPool) ExtractCopy(pktID uint64) (FlitList, bool) {
	c, ok := p.copies[pktID]
	if !ok {
		return FlitList{}, false
	}
	delete(p.copies, pktID)
	p.used -= int(c.size)
	p.freed += int64(c.size)
	if p.used < 0 {
		panic("buffer: stash pool extract underflow")
	}
	return c.payload, true
}

// InstallCopy converts a prior Reserve into a live completed copy: the
// landing point of a parity reconstruction. A non-empty payload becomes
// the copy's retained one. It must come from a pool over the same flit
// pool — a bank of the same switch — since the list names slots of that
// pool.
//
//stashsim:noalloc
func (p *StashPool) InstallCopy(pktID uint64, size int, payload FlitList) {
	p.reserved -= size
	p.used += size
	if p.reserved < 0 {
		panic("buffer: stash pool install without reservation")
	}
	if p.copies == nil {
		//lint:allow allocfree -- one-time lazy init of the live-copy map
		p.copies = make(map[uint64]liveCopy)
	}
	p.copies[pktID] = liveCopy{size: uint8(size), payload: payload}
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
	for id := range p.copies {
		lost = append(lost, id)
	}
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
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	// Free the copies in sorted id order, so that the free stack of the
	// flit pool takes their retained payloads' slots back in a
	// deterministic sequence.
	for _, id := range lost {
		if c, ok := p.copies[id]; ok {
			delete(p.copies, id)
			p.used -= int(c.size)
			p.freed += int64(c.size)
			c.payload.Reset(p.flits)
		}
	}
	if p.used < 0 {
		panic("buffer: stash pool bank-failure underflow")
	}
	fl.payload.Reset(p.flits)
	return lost
}

// Retained returns the retained payload of a live copy, for retransmission
// (error-injection extension): the list stays the copy's, and the caller
// reads its flits in place through the flit pool. The space remains
// committed until the retransmitted packet is acknowledged and deleted.
//
//stashsim:noalloc
func (p *StashPool) Retained(pktID uint64) (FlitList, bool) {
	c, ok := p.copies[pktID]
	return c.payload, ok && !c.payload.Empty()
}

// PutCongested stores one flit of a congestion-stashed packet. The packet
// becomes retrievable in FIFO order.
//
//stashsim:noalloc
func (p *StashPool) PutCongested(f proto.Flit) { p.LinkCongested(p.flits.Put(f)) }

// LinkCongested stores the congestion-stashed flit in slot i of the pool's
// flit pool, unlinked from a column buffer, as PutCongested does.
//
//stashsim:noalloc
func (p *StashPool) LinkCongested(i int32) {
	p.reserved--
	p.used++
	p.retrQ.Link(p.flits, i)
}

// RetrFront returns the front flit awaiting retrieval, or nil.
//
//stashsim:noalloc
func (p *StashPool) RetrFront() *proto.Flit {
	if p.retrQ.Empty() {
		return nil
	}
	return p.retrQ.Front(p.flits)
}

// PushRetr queues a flit for retrieval without charging pool space. It is
// used by the retransmission extension: the live copy keeps owning the
// space, and the flit's FlagStashCopy marks it so RetrPop knows not to
// release anything.
//
//stashsim:noalloc
func (p *StashPool) PushRetr(f proto.Flit) {
	if f.Flags&proto.FlagStashCopy != 0 {
		p.retrCopies++
	}
	p.retrQ.Push(p.flits, f)
}

// RetrPop dequeues the front retrieval flit. Congestion-stashed flits free
// their space; retransmission flits (FlagStashCopy) do not — their space is
// owned by the live copy — and the flag is cleared so the flit re-enters
// the network as ordinary data.
//
//stashsim:noalloc
func (p *StashPool) RetrPop() proto.Flit { return p.flits.Take(p.UnlinkRetr()) }

// UnlinkRetr dequeues the front retrieval flit as RetrPop does, but leaves
// it in its slot of the flit pool, which it returns for the caller to link
// onto a row buffer.
//
//stashsim:noalloc
func (p *StashPool) UnlinkRetr() int32 {
	i := p.retrQ.Unlink(p.flits)
	if f := p.flits.Get(i); f.Flags&proto.FlagStashCopy != 0 {
		f.Flags &^= proto.FlagStashCopy
		p.retrCopies--
		return i
	}
	p.used--
	if p.used < 0 {
		panic("buffer: stash pool retrieval underflow")
	}
	return i
}

// RetrLen returns the number of flits queued for retrieval.
//
//stashsim:noalloc
func (p *StashPool) RetrLen() int { return p.retrQ.Len() }

// AuditLists hands every list of the pool to visit, for the flit-pool
// audit: the retrieval queue, the filling payload and the retained ones.
// A retained payload is handed as a copy of its map entry, good for
// reading only.
func (p *StashPool) AuditLists(visit func(*FlitList)) {
	visit(&p.retrQ)
	visit(&p.fill.payload)
	if !p.retainPayload {
		return
	}
	//lint:allow determinism -- audit-only traversal; the audit's verdict does not depend on the order
	for _, c := range p.copies {
		p.auditEntry = c.payload
		visit(&p.auditEntry)
	}
}

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
