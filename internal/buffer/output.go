package buffer

import "stashsim/internal/proto"

// OutBuf is a switch output buffer. Architecturally it provides link-level
// retransmission: a transmitted flit is retained until the link-level
// acknowledgment returns, one round-trip time after transmission. Because
// the simulated links are error-free, retention is modeled as a timed
// occupancy that drains RTT cycles after each send. Space is consumed when
// a flit is accepted from the column buffers and released when its
// retention deadline passes, which throttles a port to one RTT-window of
// data exactly as the paper's buffer sizing intends.
//
// Like the input buffer, the normal partition is a DAMQ shared by the
// network VCs.
type OutBuf struct {
	queues   [proto.NumNetVCs]FlitList // per-VC FIFOs awaiting transmission
	flits    *FlitPool                 //stashsim:derived -- wiring: the owner's flit pool, which the queues' slots live in
	nvc      int32                     //stashsim:derived -- structural: the VCs in use, rebuilt from the configuration
	capacity int32                     //stashsim:derived -- structural: the normal-partition capacity in flits, rebuilt from the configuration
	queued   int32                     //stashsim:derived -- flits awaiting transmission; decoding pushes them
	// inflight is the retention window. It holds no flits, only the cycle
	// each sent flit's space comes back: one bit per cycle of the RTT.
	inflight Retention
	occupied uint32 //stashsim:derived -- bitmask of non-empty VCs; decoding pushes their flits
}

// NewOutBuf builds an output buffer with the given normal-partition
// capacity in flits, shared by numVCs virtual channels (at most
// proto.NumNetVCs, held in place like the DAMQ's), whose queues hold their
// flits in flits, the owning switch's pool, and whose retention window is
// window, built for the link's RTT.
func NewOutBuf(flits *FlitPool, capacity, numVCs int, window Retention) OutBuf {
	checkVCs(numVCs)
	return OutBuf{flits: flits, nvc: int32(numVCs), capacity: int32(capacity), inflight: window}
}

// Capacity returns the normal-partition capacity in flits.
func (b *OutBuf) Capacity() int { return int(b.capacity) }

// Used returns the total occupancy: queued plus retained flits.
//
//stashsim:noalloc
func (b *OutBuf) Used() int { return int(b.queued) + b.inflight.Len() }

// Queued returns the number of flits awaiting transmission.
//
//stashsim:noalloc
func (b *OutBuf) Queued() int { return int(b.queued) }

// Retained returns the number of sent flits still inside the link-level
// retention window. An output port with no queued and no retained flits
// has nothing to do until new flits or credits arrive.
//
//stashsim:noalloc
func (b *OutBuf) Retained() int { return b.inflight.Len() }

// Free returns the number of flits that can currently be accepted.
//
//stashsim:noalloc
func (b *OutBuf) Free() int { return int(b.capacity) - b.Used() }

// Push accepts a copy of a flit. Callers gate on Free.
//
//stashsim:noalloc
func (b *OutBuf) Push(f proto.Flit) { b.Link(b.flits.Put(f)) }

// Link accepts the flit in slot i of the buffer's pool, unlinked from a
// column buffer, onto the queue of its VC. Callers gate on Free.
//
//stashsim:noalloc
func (b *OutBuf) Link(i int32) {
	if b.Free() <= 0 {
		panic("buffer: output buffer overflow")
	}
	vc := b.flits.Get(i).VC
	b.queues[vc].Link(b.flits, i)
	b.queued++
	b.occupied |= 1 << uint(vc)
}

// Front returns the front flit of vc, or nil when empty.
//
//stashsim:noalloc
func (b *OutBuf) Front(vc int) *proto.Flit {
	if b.queues[vc].Empty() {
		return nil
	}
	return b.queues[vc].Front(b.flits)
}

// Occupied returns a bitmask of VCs with flits awaiting transmission.
//
//stashsim:noalloc
func (b *OutBuf) Occupied() uint32 { return b.occupied }

// Send dequeues the front flit of vc for transmission and retains its space
// until releaseAt (transmit time plus link RTT). A port that releases what
// is due before it sends and sends at most once a cycle always passes a
// releaseAt the window fits; any other panics (see Retention).
//
//stashsim:noalloc
func (b *OutBuf) Send(vc int, releaseAt int64) proto.Flit {
	f := b.queues[vc].Pop(b.flits)
	b.queued--
	if b.queues[vc].Empty() {
		b.occupied &^= 1 << uint(vc)
	}
	b.inflight.Push(releaseAt)
	return f
}

// Release frees the space of every retained flit whose deadline has passed.
//
//stashsim:noalloc
func (b *OutBuf) Release(now int64) {
	if b.inflight.FrontDue(now) { // the per-cycle probe, in line
		b.inflight.Release(now)
	}
}

// ReleaseDue reports whether Release(now) would free anything: the
// active-set probe that lets an otherwise idle output port skip its step
// while retention deadlines are still in the future.
//
//stashsim:noalloc
func (b *OutBuf) ReleaseDue(now int64) bool { return b.inflight.FrontDue(now) }

// AuditLists hands each per-VC queue to visit, for the flit-pool audit.
func (b *OutBuf) AuditLists(visit func(*FlitList)) {
	for vc := range b.queues {
		visit(&b.queues[vc])
	}
}

// NextRelease returns the earliest retention deadline, math.MaxInt64 when
// nothing is retained: the cycle an otherwise idle port next has work.
//
//stashsim:noalloc
func (b *OutBuf) NextRelease() int64 { return b.inflight.NextAt() }
