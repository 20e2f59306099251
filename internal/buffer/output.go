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
	queues   [proto.NumNetVCs]Queue[proto.Flit] // per-VC FIFOs awaiting transmission
	nvc      int                                //stashsim:derived -- structural: the VCs in use, rebuilt from the configuration
	capacity int                                //stashsim:derived -- structural: the normal-partition capacity in flits, rebuilt from the configuration
	queued   int                                //stashsim:derived -- flits awaiting transmission; decoding pushes them
	// inflight is the retention window. It holds no flits, only the cycle
	// each sent flit's space comes back: 8 bytes an entry.
	inflight Timed[struct{}]
	occupied uint32 //stashsim:derived -- bitmask of non-empty VCs; decoding pushes their flits
}

// NewOutBuf builds an output buffer with the given normal-partition
// capacity in flits, shared by numVCs virtual channels (at most
// proto.NumNetVCs, held in place like the DAMQ's).
func NewOutBuf(capacity, numVCs int) OutBuf {
	checkVCs(numVCs)
	return OutBuf{nvc: numVCs, capacity: capacity}
}

// Capacity returns the normal-partition capacity in flits.
func (b *OutBuf) Capacity() int { return b.capacity }

// Used returns the total occupancy: queued plus retained flits.
//
//stashsim:noalloc
func (b *OutBuf) Used() int { return b.queued + b.inflight.Len() }

// Queued returns the number of flits awaiting transmission.
//
//stashsim:noalloc
func (b *OutBuf) Queued() int { return b.queued }

// Retained returns the number of sent flits still inside the link-level
// retention window. An output port with no queued and no retained flits
// has nothing to do until new flits or credits arrive.
//
//stashsim:noalloc
func (b *OutBuf) Retained() int { return b.inflight.Len() }

// Free returns the number of flits that can currently be accepted.
//
//stashsim:noalloc
func (b *OutBuf) Free() int { return b.capacity - b.Used() }

// Push accepts a flit from a column buffer. Callers gate on Free.
//
//stashsim:noalloc
func (b *OutBuf) Push(f proto.Flit) {
	if b.Free() <= 0 {
		panic("buffer: output buffer overflow")
	}
	b.queues[f.VC].Push(f)
	b.queued++
	b.occupied |= 1 << uint(f.VC)
}

// Front returns the front flit of vc, or nil when empty.
//
//stashsim:noalloc
func (b *OutBuf) Front(vc int) *proto.Flit {
	if b.queues[vc].Empty() {
		return nil
	}
	return b.queues[vc].Front()
}

// Occupied returns a bitmask of VCs with flits awaiting transmission.
//
//stashsim:noalloc
func (b *OutBuf) Occupied() uint32 { return b.occupied }

// Send dequeues the front flit of vc for transmission and retains its space
// until releaseAt (transmit time plus link RTT).
//
//stashsim:noalloc
func (b *OutBuf) Send(vc int, releaseAt int64) proto.Flit {
	f := b.queues[vc].Pop()
	b.queued--
	if b.queues[vc].Empty() {
		b.occupied &^= 1 << uint(vc)
	}
	b.inflight.Push(releaseAt, struct{}{})
	return f
}

// Release frees the space of every retained flit whose deadline has passed.
//
//stashsim:noalloc
func (b *OutBuf) Release(now int64) {
	for b.inflight.FrontDue(now) {
		b.inflight.PopDue(now)
	}
}

// ReleaseDue reports whether Release(now) would free anything: the
// active-set probe that lets an otherwise idle output port skip its step
// while retention deadlines are still in the future.
//
//stashsim:noalloc
func (b *OutBuf) ReleaseDue(now int64) bool { return b.inflight.FrontDue(now) }

// NextRelease returns the earliest retention deadline, math.MaxInt64 when
// nothing is retained: the cycle an otherwise idle port next has work.
//
//stashsim:noalloc
func (b *OutBuf) NextRelease() int64 { return b.inflight.NextAt() }
