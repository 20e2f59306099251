// Package buffer implements the storage structures of the tiled switch:
// the two growable FIFOs everything else is built from, DAMQ-style
// shared-pool buffers with per-VC reserved quotas, matching sender-side
// credit counters, the two-bank interleaved port memory of the paper's
// Section III-B, the output (link-level retransmission) buffer, and the
// per-port stash pool added by the stashing architecture.
package buffer

import (
	"math"
	"math/bits"
)

// Queue and Timed are the simulator's rings: the endpoint queues — its
// ACK and resend queues, and a send queue per destination while it holds
// packets — are Queues; a switch's side band is a Timed. Every queue a
// switch holds flits in, and every link path — flits and credits on the
// wire — is instead a List or TimedList in a group's Pool (pool.go),
// so that its storage follows its occupancy, and an output port's
// retention window, deadlines alone, is a Retention bitmap of fixed size
// (retention.go). Both rings are powers of two that double on demand and
// never shrink, so steady-state operation performs no allocation; an
// endpoint keeps its drained send queues for reuse rather than dropping
// their rings. Each ring owns its backing array and calls no method on T:
// Timed is deliberately not a Queue of pairs, because the extra call layer
// costs a third on the per-entry path (DESIGN.md §11).

// Queue is a growable FIFO.
type Queue[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued entries.
//
//stashsim:noalloc
func (q *Queue[T]) Len() int { return q.n }

// Empty reports whether the queue holds no entries.
//
//stashsim:noalloc
func (q *Queue[T]) Empty() bool { return q.n == 0 }

// Reset empties the queue and drops its backing array.
func (q *Queue[T]) Reset() { *q = Queue[T]{} }

// Push appends an entry.
//
//stashsim:noalloc
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.buf, q.head = resizeRing(q.buf, q.head, q.n, 2*len(q.buf)), 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Grow makes room for n more entries, so that the next n Pushes do not
// reallocate: decoding sizes each ring once from its decoded count.
func (q *Queue[T]) Grow(n int) {
	if q.n+n > len(q.buf) {
		q.buf, q.head = resizeRing(q.buf, q.head, q.n, q.n+n), 0
	}
}

// Pop removes and returns the oldest entry. It panics when empty.
//
//stashsim:noalloc
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("buffer: pop from empty queue")
	}
	v := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Front returns a pointer to the oldest entry without removing it. The
// pointer is invalidated by the next Push or Pop. It panics when empty.
//
//stashsim:noalloc
func (q *Queue[T]) Front() *T {
	if q.n == 0 {
		panic("buffer: front of empty queue")
	}
	return &q.buf[q.head]
}

// At returns a pointer to the i-th oldest entry (0 = front).
//
//stashsim:noalloc
func (q *Queue[T]) At(i int) *T {
	if i < 0 || i >= q.n {
		panic("buffer: queue index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// resizeRing returns a power-of-two ring's n entries moved, in order, to
// the front of a new backing array of the smallest power of two that holds
// size slots, and at least 8.
//
//stashsim:noalloc
func resizeRing[T any](buf []T, head, n, size int) []T {
	//lint:allow allocfree -- amortized doubling; steady state stays within the high-water capacity
	nb := make([]T, 1<<bits.Len(uint(max(8, size)-1)))
	for i := 0; i < n; i++ {
		nb[i] = buf[(head+i)&(len(buf)-1)]
	}
	return nb
}

// Entry is one element of a Timed queue: a value and the cycle it comes due.
type Entry[T any] struct {
	V  T
	At int64
}

// Timed is a growable FIFO of entries in non-decreasing deadline order: a
// fixed-latency pipeline. nextAt mirrors the front entry's deadline so the
// per-cycle due probes read only the queue header, never the backing array —
// one cache line instead of two.
type Timed[T any] struct {
	buf    []Entry[T]
	head   int
	n      int
	nextAt int64
}

// Len returns the number of queued entries.
//
//stashsim:noalloc
func (q *Timed[T]) Len() int { return q.n }

// Reset empties the queue and drops its backing array.
func (q *Timed[T]) Reset() { *q = Timed[T]{} }

// Push appends an entry due at cycle at. Deadlines must be non-decreasing;
// this holds for everything with a constant latency (the side band).
//
//stashsim:noalloc
func (q *Timed[T]) Push(at int64, v T) {
	if q.n == len(q.buf) {
		q.buf, q.head = resizeRing(q.buf, q.head, q.n, 2*len(q.buf)), 0
	}
	if q.n == 0 {
		q.nextAt = at
	}
	e := &q.buf[(q.head+q.n)&(len(q.buf)-1)]
	e.V, e.At = v, at
	q.n++
}

// Grow makes room for n more entries, as Queue.Grow does.
func (q *Timed[T]) Grow(n int) {
	if q.n+n > len(q.buf) {
		q.buf, q.head = resizeRing(q.buf, q.head, q.n, q.n+n), 0
	}
}

// PopDue removes and returns the front value if its deadline is <= now.
//
//stashsim:noalloc
func (q *Timed[T]) PopDue(now int64) (v T, ok bool) {
	if q.n == 0 || q.nextAt > now {
		return v, false
	}
	v = q.buf[q.head].V
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	if q.n > 0 {
		q.nextAt = q.buf[q.head].At
	}
	return v, true
}

// FrontDue reports whether the front entry's deadline has passed; small
// enough to inline into per-cycle idle probes, and header-only thanks to
// the nextAt mirror.
//
//stashsim:noalloc
func (q *Timed[T]) FrontDue(now int64) bool {
	return q.n > 0 && q.nextAt <= now
}

// NextAt returns the front entry's deadline, math.MaxInt64 when empty:
// the queue's term in its owner's "when is something next due" minimum.
//
//stashsim:noalloc
func (q *Timed[T]) NextAt() int64 {
	if q.n == 0 {
		return math.MaxInt64
	}
	return q.nextAt
}

// At returns a pointer to the i-th oldest entry (0 = front). Callers may
// change V in place but not At.
//
//stashsim:noalloc
func (q *Timed[T]) At(i int) *Entry[T] {
	if i < 0 || i >= q.n {
		panic("buffer: timed queue index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}
