package buffer

import "stashsim/internal/proto"

// Reserves computes the per-VC reserved quota for a DAMQ of the given
// capacity. Each VC gets up to one maximum packet of private space so that a
// blocked VC can never be starved of buffer by the shared pool, but the
// total reservation is capped at half the capacity so small (heavily
// stashed) partitions still retain a useful shared region.
func Reserves(capacity, numVCs int) int {
	if numVCs <= 0 {
		return 0
	}
	r := proto.MaxPacketFlits
	if max := capacity / (2 * numVCs); r > max {
		r = max
	}
	if r < 1 && capacity >= numVCs {
		r = 1
	}
	return r
}

// DAMQ is a dynamically-allocated multi-queue input buffer: per-VC FIFOs
// drawing from one storage pool, with a small per-VC reserved quota and the
// remainder shared (Tamir & Frazier). The matching sender-side state is
// CreditCounter; both make the reserved-first allocation decision
// deterministically so their views never diverge.
type DAMQ struct {
	queues   [proto.NumNetVCs]Queue[proto.Flit]
	nvc      int                  //stashsim:derived -- structural: the VCs in use, rebuilt from the configuration
	capacity int                  //stashsim:derived -- structural; rebuilt from the configuration
	reserve  int                  //stashsim:derived -- structural: the per-VC reserved quota, rebuilt from the configuration
	resvUsed [proto.NumNetVCs]int //stashsim:derived -- reserved slots in use per VC: the queued flits without FlagShared; decoding pushes them
	shared   int                  //stashsim:derived -- shared slots in use: the queued flits with FlagShared; decoding pushes them
	used     int                  //stashsim:derived -- total queued flits; decoding pushes them
	occupied uint32               //stashsim:derived -- bitmask of non-empty VCs; decoding pushes their flits
}

// NewDAMQ builds a DAMQ with the given total capacity (flits) shared by
// numVCs virtual channels, at most proto.NumNetVCs: the per-VC state is
// held in place, so a port holds its DAMQ by value.
func NewDAMQ(capacity, numVCs int) DAMQ {
	checkVCs(numVCs)
	return DAMQ{
		nvc:      numVCs,
		capacity: capacity,
		reserve:  Reserves(capacity, numVCs),
	}
}

// checkVCs refuses a VC count the per-VC arrays cannot hold.
func checkVCs(numVCs int) {
	if numVCs < 0 || numVCs > proto.NumNetVCs {
		panic("buffer: VC count outside [0, proto.NumNetVCs]")
	}
}

// Capacity returns the total pool capacity in flits.
func (d *DAMQ) Capacity() int { return d.capacity }

// Reserve returns the per-VC reserved quota in flits.
func (d *DAMQ) Reserve() int { return d.reserve }

// Used returns the total occupancy in flits.
//
//stashsim:noalloc
func (d *DAMQ) Used() int { return d.used }

// SharedFree returns the number of free shared-pool slots.
//
//stashsim:noalloc
func (d *DAMQ) SharedFree() int {
	return d.capacity - d.nvc*d.reserve - d.shared
}

// Avail returns the number of flits that could currently be enqueued on vc.
//
//stashsim:noalloc
func (d *DAMQ) Avail(vc int) int {
	return d.reserve - d.resvUsed[vc] + d.SharedFree()
}

// Push enqueues a flit on its VC. The pool (reserved vs shared) was chosen
// by the sender's CreditCounter and is carried in the flit's FlagShared bit;
// the receiver honors that stamp so the two sides never drift even though
// credit returns are delayed by the link latency. It panics on overflow,
// which indicates a flow-control bug.
//
//stashsim:noalloc
func (d *DAMQ) Push(f proto.Flit) bool {
	vc := int(f.VC)
	shared := f.Flags&proto.FlagShared != 0
	if shared {
		if d.SharedFree() <= 0 {
			panic("buffer: DAMQ shared-pool overflow")
		}
		d.shared++
	} else {
		if d.resvUsed[vc] >= d.reserve {
			panic("buffer: DAMQ reserved-quota overflow")
		}
		d.resvUsed[vc]++
	}
	d.used++
	d.queues[vc].Push(f)
	d.occupied |= 1 << uint(vc)
	return shared
}

// Pop dequeues the front flit of vc and returns it together with the credit
// that must be sent upstream.
//
//stashsim:noalloc
func (d *DAMQ) Pop(vc int) (proto.Flit, proto.Credit) {
	f := d.queues[vc].Pop()
	shared := f.Flags&proto.FlagShared != 0
	if shared {
		d.shared--
	} else {
		d.resvUsed[vc]--
	}
	d.used--
	if d.queues[vc].Empty() {
		d.occupied &^= 1 << uint(vc)
	}
	f.Flags &^= proto.FlagShared
	return f, proto.Credit{VC: uint8(vc), Shared: shared}
}

// Front returns the front flit of vc, or nil when the VC queue is empty.
//
//stashsim:noalloc
func (d *DAMQ) Front(vc int) *proto.Flit {
	if d.queues[vc].Empty() {
		return nil
	}
	return d.queues[vc].Front()
}

// Len returns the occupancy of one VC queue in flits.
//
//stashsim:noalloc
func (d *DAMQ) Len(vc int) int { return d.queues[vc].Len() }

// Occupied returns a bitmask of VCs with at least one queued flit.
//
//stashsim:noalloc
func (d *DAMQ) Occupied() uint32 { return d.occupied }

// NumVCs returns the number of virtual channels sharing the pool.
func (d *DAMQ) NumVCs() int { return d.nvc }

// ResvUsed returns the occupancy of vc's reserved quota, for the
// invariant checker's credit-conservation audit.
func (d *DAMQ) ResvUsed(vc int) int { return d.resvUsed[vc] }

// SharedUsed returns the shared-pool occupancy in flits.
func (d *DAMQ) SharedUsed() int { return d.shared }

// CreditCounter is the sender-side mirror of a downstream DAMQ. The sender
// decrements it when transmitting and the receiver's credits replenish it
// (after the link's credit-return latency). Both sides use the identical
// reserved-first policy, carried in the flit's FlagShared bit, so the
// counters track the receiver exactly.
type CreditCounter struct {
	nvc      int //stashsim:derived -- structural: the VCs mirrored, rebuilt from the configuration
	reserve  int //stashsim:derived -- structural; rebuilt from the configuration
	resvFree [proto.NumNetVCs]int
	shared   int
}

// NewCreditCounter mirrors a DAMQ with the given capacity and VC count.
func NewCreditCounter(capacity, numVCs int) CreditCounter {
	checkVCs(numVCs)
	c := CreditCounter{nvc: numVCs, reserve: Reserves(capacity, numVCs)}
	for i := 0; i < numVCs; i++ {
		c.resvFree[i] = c.reserve
	}
	c.shared = capacity - numVCs*c.reserve
	return c
}

// Avail returns how many flits may currently be sent on vc.
//
//stashsim:noalloc
func (c *CreditCounter) Avail(vc int) int { return c.resvFree[vc] + c.shared }

// NumVCs returns the number of virtual channels mirrored.
func (c *CreditCounter) NumVCs() int { return c.nvc }

// Reserve returns the per-VC reserved quota being mirrored.
func (c *CreditCounter) Reserve() int { return c.reserve }

// ResvFree returns the free reserved-quota credits for vc.
func (c *CreditCounter) ResvFree(vc int) int { return c.resvFree[vc] }

// SharedFree returns the free shared-pool credit count.
func (c *CreditCounter) SharedFree() int { return c.shared }

// Take consumes one credit for vc, reserved-first, and stamps the flit's
// FlagShared to match. It panics when no credit is available.
//
//stashsim:noalloc
func (c *CreditCounter) Take(f *proto.Flit) {
	vc := int(f.VC)
	if c.resvFree[vc] > 0 {
		c.resvFree[vc]--
		f.Flags &^= proto.FlagShared
	} else if c.shared > 0 {
		c.shared--
		f.Flags |= proto.FlagShared
	} else {
		panic("buffer: credit underflow")
	}
}

// Return replenishes one credit as described by cr.
//
//stashsim:noalloc
func (c *CreditCounter) Return(cr proto.Credit) {
	if cr.Shared {
		c.shared++
	} else {
		c.resvFree[cr.VC]++
	}
}

// ReturnN replenishes n reserved credits for vc at once — the bulk form
// behind per-cycle credit batching. Equivalent to n Return calls because
// replenishment is a plain commutative increment.
//
//stashsim:noalloc
func (c *CreditCounter) ReturnN(vc, n int) { c.resvFree[vc] += n }

// ReturnShared replenishes n shared-pool credits at once.
//
//stashsim:noalloc
func (c *CreditCounter) ReturnShared(n int) { c.shared += n }
