// Package buffer implements the storage structures of the tiled switch:
// growable flit rings, DAMQ-style shared-pool buffers with per-VC reserved
// quotas, matching sender-side credit counters, the two-bank interleaved
// port memory of the paper's Section III-B, the output (link-level
// retransmission) buffer, and the per-port stash pool added by the stashing
// architecture.
package buffer

import (
	"math"

	"stashsim/internal/proto"
)

// Ring is a growable FIFO of flits. It grows geometrically on demand and
// never shrinks, so steady-state operation performs no allocation.
type Ring struct {
	buf  []proto.Flit //stashsim:derived -- storage layout; the walk goes through the ring's accessors
	head int          //stashsim:derived -- storage layout; the walk goes through the ring's accessors
	n    int
}

// Len returns the number of queued flits.
//
//stashsim:noalloc
func (r *Ring) Len() int { return r.n }

// Empty reports whether the ring holds no flits.
//
//stashsim:noalloc
func (r *Ring) Empty() bool { return r.n == 0 }

// Push appends a flit.
//
//stashsim:noalloc
func (r *Ring) Push(f proto.Flit) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = f
	r.n++
}

// Pop removes and returns the oldest flit. It panics when empty.
//
//stashsim:noalloc
func (r *Ring) Pop() proto.Flit {
	if r.n == 0 {
		panic("buffer: pop from empty ring")
	}
	f := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return f
}

// Front returns a pointer to the oldest flit without removing it. The
// pointer is invalidated by the next Push or Pop. It panics when empty.
//
//stashsim:noalloc
func (r *Ring) Front() *proto.Flit {
	if r.n == 0 {
		panic("buffer: front of empty ring")
	}
	return &r.buf[r.head]
}

// At returns a pointer to the i-th oldest flit (0 = front).
//
//stashsim:noalloc
func (r *Ring) At(i int) *proto.Flit {
	if i < 0 || i >= r.n {
		panic("buffer: ring index out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

//stashsim:noalloc
func (r *Ring) grow() { r.buf, r.head = growRing(r.buf, r.head, r.n), 0 }

// growRing returns a power-of-two ring's backing array doubled (8 slots to
// start with), its n entries moved to the front in order.
//
//stashsim:noalloc
func growRing[T any](buf []T, head, n int) []T {
	//lint:allow allocfree -- amortized doubling; steady state stays within the high-water capacity
	nb := make([]T, max(8, 2*len(buf)))
	for i := 0; i < n; i++ {
		nb[i] = buf[(head+i)&(len(buf)-1)]
	}
	return nb
}

// TimedFlit is a flit with an associated deadline, used by link pipelines
// (arrival time) and output buffers (release time).
type TimedFlit struct {
	At   int64
	Flit proto.Flit
}

// TimedRing is a growable FIFO of TimedFlits. nextAt mirrors the front
// entry's deadline so the per-cycle due probes read only the ring header,
// never the backing array — one cache line instead of two.
type TimedRing struct {
	buf    []TimedFlit
	head   int
	n      int
	nextAt int64
}

// Len returns the number of queued entries.
//
//stashsim:noalloc
func (r *TimedRing) Len() int { return r.n }

// Empty reports whether the ring holds no entries.
//
//stashsim:noalloc
func (r *TimedRing) Empty() bool { return r.n == 0 }

// Push appends an entry. Deadlines must be monotonically non-decreasing;
// this holds for link pipelines (fixed latency) and RTT retention queues.
//
//stashsim:noalloc
func (r *TimedRing) Push(t TimedFlit) {
	if r.n == len(r.buf) {
		r.grow()
	}
	if r.n == 0 {
		r.nextAt = t.At
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = t
	r.n++
}

// PopDue removes and returns the front entry if its deadline is <= now.
//
//stashsim:noalloc
func (r *TimedRing) PopDue(now int64) (TimedFlit, bool) {
	if r.n == 0 || r.nextAt > now {
		return TimedFlit{}, false
	}
	t := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	if r.n > 0 {
		r.nextAt = r.buf[r.head].At
	}
	return t, true
}

// Front returns a pointer to the front entry; it panics when empty.
//
//stashsim:noalloc
func (r *TimedRing) Front() *TimedFlit {
	if r.n == 0 {
		panic("buffer: front of empty timed ring")
	}
	return &r.buf[r.head]
}

// FrontDue reports whether the front entry's deadline has passed; small
// enough to inline into per-cycle idle probes, and header-only thanks to
// the nextAt mirror.
//
//stashsim:noalloc
func (r *TimedRing) FrontDue(now int64) bool {
	return r.n > 0 && r.nextAt <= now
}

// NextAt returns the front entry's deadline, math.MaxInt64 when empty:
// the ring's term in its owner's "when is something next due" minimum.
//
//stashsim:noalloc
func (r *TimedRing) NextAt() int64 {
	if r.n == 0 {
		return math.MaxInt64
	}
	return r.nextAt
}

// At returns a pointer to the i-th oldest entry (0 = front).
//
//stashsim:noalloc
func (r *TimedRing) At(i int) *TimedFlit {
	if i < 0 || i >= r.n {
		panic("buffer: timed ring index out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

//stashsim:noalloc
func (r *TimedRing) grow() { r.buf, r.head = growRing(r.buf, r.head, r.n), 0 }
