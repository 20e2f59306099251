// Package buffer implements the storage structures of the tiled switch:
// the pools every queue of a dragonfly group draws from and the FIFO lists
// threaded through them, DAMQ-style shared-pool buffers with per-VC
// reserved quotas, matching sender-side credit counters, the two-bank
// interleaved port memory of the paper's Section III-B, the output
// (link-level retransmission) buffer with its retention bitmap, and the
// per-port stash pool added by the stashing architecture.
package buffer

import (
	"fmt"
	"math"

	"stashsim/internal/proto"
	"stashsim/internal/snapshot"
)

// Pool is one dragonfly group's storage for the queued values of one type,
// and List and TimedList are FIFOs threaded through it: they are the
// simulator's one FIFO mechanism. A group holds one pool per type
// (core.Pools): its FlitPool, which every flit queue of its switches and
// endpoints draws from — the DAMQ's per-VC queues, the output buffer's
// VCs, the tiles' row buffers, the ports' column buffers, the stash
// retrieval queues and retained payloads, the endpoints' ACK queues — and
// the flits on the wire of the links they consume; a pool of credits for
// the credit paths they consume (core.Link says which paths those are);
// and pools of the switches' side-band messages and of the endpoints'
// send-queue packets and resend items. The slots live in fixed chunks
// that never move, so a pointer to a queued value stays valid until its
// slot is freed, and free slots form a LIFO stack. An empty list holds no
// storage, and moving a value from one queue to the next (Unlink, then
// Link) relinks its slot instead of copying it. The pool grows by one
// chunk when the stack runs dry and never shrinks, so its capacity is the
// most values its group has held at once, rounded up to a chunk.
//
// Slot numbers record the order values happened to arrive in — a restored
// run numbers the same queues differently — so nothing may decide anything
// by them, and a checkpoint walks the lists, never the pool.
type Pool[T any] struct {
	chunks []*[PoolChunk]poolSlot[T]
	free   int32 // top of the free stack; meaningless when nfree is zero
	nfree  int32
	used   int32
	peak   int32

	cell  T             // the value a decoding walk fills (fill); not state
	audit *poolAudit[T] // Audit's scratch, made by the first audit; not state
}

// poolAudit is Audit's scratch, kept from one audit to the next so that an
// audit allocates nothing and clears nothing: it marks a slot by stamping
// it with the audit's generation, so the last audit's marks are stale
// without being cleared.
type poolAudit[T any] struct {
	stamp  []uint32 // per slot, the generation of the last audit that found it on a list
	gen    uint32   // the running audit's generation, never zero
	marked int      // slots the running audit has found
	list   int      // the list being followed: -1 for the free stack
	err    error
	visit  func(*List[T]) // auditList, bound once
}

// FlitPool is the pool of a switch's flits, and FlitList a FIFO of flits in
// it.
type (
	FlitPool = Pool[proto.Flit]
	FlitList = List[proto.Flit]
)

// PoolChunk is the number of slots a Pool grows by.
const PoolChunk = 1 << chunkBits

const chunkBits = 6

// poolSlot is a value and the next slot of the list or the free stack it
// is on. On a TimedList, succAt is the due cycle of that next value: a pop
// reads the new front's due cycle from the slot it frees, so it touches
// one slot, not two, and a value's own due cycle is its predecessor's
// succAt (the list's nextAt for the front). The value comes last, so that
// a small one packs into the padding after next: a credit's slot is 16
// bytes, not 24.
type poolSlot[T any] struct {
	succAt int64
	next   int32
	v      T
}

// List is a FIFO of values held in a Pool: the slot numbers of its oldest
// and newest value, linked through the slots, and its length. The zero
// value is an empty list. Every method takes the pool the list draws from.
type List[T any] struct {
	head, tail int32 //stashsim:derived -- slot numbers, which a restore's pushes assign anew; meaningless when n is zero
	n          int32 //stashsim:derived -- rebuilt by pushing each walked value: a checkpoint walks a list as its values
}

// TimedList is a List whose values each come due at a cycle, in
// non-decreasing order: a fixed-latency pipeline held in a Pool. nextAt
// mirrors the oldest value's due cycle, so the per-cycle due probes read
// only the list header, never a slot.
type TimedList[T any] struct {
	l      List[T]
	nextAt int64 // meaningless when the list is empty
}

//stashsim:noalloc
func (p *Pool[T]) slot(i int32) *poolSlot[T] { return &p.chunks[i>>chunkBits][i&(PoolChunk-1)] }

// Get returns the value in slot i.
//
//stashsim:noalloc
func (p *Pool[T]) Get(i int32) *T { return &p.slot(i).v }

// Put stores v in a free slot, growing the pool by a chunk when none is
// free, and returns the slot, which the caller links onto a list.
//
//stashsim:noalloc
func (p *Pool[T]) Put(v T) int32 {
	i, s := p.alloc()
	s.v = v
	return i
}

// Take frees slot i, which must be on no list, and returns its value.
//
//stashsim:noalloc
func (p *Pool[T]) Take(i int32) T {
	s := p.slot(i)
	p.release(i, s)
	return s.v
}

// alloc takes slot i off the free stack, growing the pool by a chunk when
// the stack is empty, and returns it with its address s; release puts it
// back. Both leave the value alone. They are the one place the accounting
// changes, and handing s on spares the callers a second address
// computation.
//
//stashsim:noalloc
func (p *Pool[T]) alloc() (i int32, s *poolSlot[T]) {
	if p.nfree == 0 {
		p.grow()
	}
	i = p.free
	s = p.slot(i)
	p.free = s.next
	p.nfree--
	if p.used++; p.used > p.peak {
		p.peak = p.used
	}
	return i, s
}

//stashsim:noalloc
func (p *Pool[T]) release(i int32, s *poolSlot[T]) {
	s.next = p.free
	p.free = i
	p.nfree++
	p.used--
}

// grow adds one chunk of free slots, the lowest on top. It is kept out of
// line so that alloc's callers stay small.
//
//go:noinline
//stashsim:noalloc
func (p *Pool[T]) grow() {
	base := int32(len(p.chunks)) << chunkBits
	//lint:allow allocfree -- one chunk when the free stack runs dry: capacity follows the high-water mark, never the run's length
	p.chunks = append(p.chunks, new([PoolChunk]poolSlot[T]))
	for i := base + PoolChunk - 1; i >= base; i-- {
		p.slot(i).next = p.free
		p.free = i
	}
	p.nfree += PoolChunk
}

// Grow makes room for n more values, so that the next n Puts take no chunk.
func (p *Pool[T]) Grow(n int) {
	for int(p.nfree) < n {
		p.grow()
	}
}

// Cap returns the slots the pool holds, InUse those on a list, and Peak
// the most that have been in use at once.
func (p *Pool[T]) Cap() int   { return len(p.chunks) * PoolChunk }
func (p *Pool[T]) InUse() int { return int(p.used) }
func (p *Pool[T]) Peak() int  { return int(p.peak) }

// Len returns the number of queued values.
//
//stashsim:noalloc
func (l *List[T]) Len() int { return int(l.n) }

// Empty reports whether the list holds no values.
//
//stashsim:noalloc
func (l *List[T]) Empty() bool { return l.n == 0 }

// Link appends slot i, which must be in use and on no list.
//
//stashsim:noalloc
func (l *List[T]) Link(p *Pool[T], i int32) {
	if l.n == 0 {
		l.head = i
	} else {
		p.slot(l.tail).next = i
	}
	l.tail = i
	l.n++
}

// Unlink removes the oldest slot and returns it, still holding its value:
// the caller links it onto another list or Takes it. It panics when empty.
//
//stashsim:noalloc
func (l *List[T]) Unlink(p *Pool[T]) int32 {
	if l.n == 0 {
		panic("buffer: unlink from empty list")
	}
	i := l.head
	l.head = p.slot(i).next
	l.n--
	return i
}

// Push appends a copy of v.
//
//stashsim:noalloc
func (l *List[T]) Push(p *Pool[T], v T) { l.Link(p, p.Put(v)) }

// Pop removes and returns the oldest value, freeing its slot. It panics
// when empty.
//
//stashsim:noalloc
func (l *List[T]) Pop(p *Pool[T]) T { return p.Take(l.Unlink(p)) }

// Front returns the oldest value in place; the pointer stays valid until
// its slot is freed. It panics when empty.
//
//stashsim:noalloc
func (l *List[T]) Front(p *Pool[T]) *T {
	if l.n == 0 {
		panic("buffer: front of empty list")
	}
	return p.Get(l.head)
}

// Head returns the slot of the oldest value, and Pool.Next the slot after
// a given one: a walk in queue order reads Len values from Head, following
// Next between them:
//
//	for k, i := 0, l.Head(); k < l.Len(); k, i = k+1, p.Next(i) { ... p.Get(i) ... }
//
// When the list is empty, Head returns nothing meaningful.
//
//stashsim:noalloc
func (l *List[T]) Head() int32 { return l.head }

// Next returns the slot after slot i on its list. After a list's tail it
// returns nothing meaningful.
//
//stashsim:noalloc
func (p *Pool[T]) Next(i int32) int32 { return p.slot(i).next }

// Reset frees every slot of the list.
//
//stashsim:noalloc
func (l *List[T]) Reset(p *Pool[T]) {
	for l.n > 0 {
		p.Take(l.Unlink(p))
	}
}

// Len returns the number of queued values.
//
//stashsim:noalloc
func (l *TimedList[T]) Len() int { return int(l.l.n) }

// Empty reports whether the list holds no values.
//
//stashsim:noalloc
func (l *TimedList[T]) Empty() bool { return l.l.n == 0 }

// Push appends v, due at cycle at. Deadlines must be non-decreasing, which
// holds for everything with a constant latency.
//
//stashsim:noalloc
func (l *TimedList[T]) Push(p *Pool[T], at int64, v T) {
	// alloc, written out: the one call a push onto the wire makes.
	if p.nfree == 0 {
		p.grow()
	}
	i := p.free
	s := p.slot(i)
	p.free = s.next
	p.nfree--
	if p.used++; p.used > p.peak {
		p.peak = p.used
	}
	s.v = v
	l.link(p, i, at)
}

// link appends slot i, due at at: the old tail learns its successor's due
// cycle along with its slot.
//
//stashsim:noalloc
func (l *TimedList[T]) link(p *Pool[T], i int32, at int64) {
	if l.l.n == 0 {
		l.l.head = i
		l.nextAt = at
	} else {
		t := p.slot(l.l.tail)
		t.next = i
		t.succAt = at
	}
	l.l.tail = i
	l.l.n++
}

// FrontDue reports whether the oldest value is due by now; header-only.
//
//stashsim:noalloc
func (l *TimedList[T]) FrontDue(now int64) bool { return l.l.n > 0 && l.nextAt <= now }

// NextAt returns the oldest value's due cycle, math.MaxInt64 when empty:
// the list's term in its owner's "when is something next due" minimum.
//
//stashsim:noalloc
func (l *TimedList[T]) NextAt() int64 {
	if l.l.n == 0 {
		return math.MaxInt64
	}
	return l.nextAt
}

// Front returns the oldest value in place. It panics when empty.
//
//stashsim:noalloc
func (l *TimedList[T]) Front(p *Pool[T]) *T {
	if l.l.n == 0 {
		panic("buffer: front of empty timed list")
	}
	return &p.slot(l.l.head).v
}

// Unlink removes the oldest slot, which the caller has found due, and
// returns it still holding its value, for a List of the same pool to Link
// or the pool to Take. It panics when empty.
//
//stashsim:noalloc
func (l *TimedList[T]) Unlink(p *Pool[T]) int32 {
	if l.l.n == 0 {
		panic("buffer: unlink from empty timed list")
	}
	i := l.l.head
	s := p.slot(i)
	l.l.head = s.next
	l.l.n--
	l.nextAt = s.succAt
	return i
}

// PopDue removes and returns the oldest value if it is due by now.
//
//stashsim:noalloc
func (l *TimedList[T]) PopDue(p *Pool[T], now int64) (v T, ok bool) {
	if !l.FrontDue(now) {
		return v, false
	}
	// Unlink, written out: the one call a pop off the wire makes.
	i := l.l.head
	s := p.slot(i)
	l.l.head = s.next
	l.l.n--
	l.nextAt = s.succAt
	p.release(i, s)
	return s.v, true
}

// Reset frees every slot of the list.
func (l *TimedList[T]) Reset(p *Pool[T]) { l.l.Reset(p) }

// Slots returns the list's slots as a plain List, for Pool.Audit and for a
// walk in queue order (List.Head, Pool.Next). Linking or unlinking through
// it would bypass the due-cycle mirrors.
func (l *TimedList[T]) Slots() *List[T] { return &l.l }

// Entry is one value of a TimedList as a link's staging slab holds it: the
// value and the cycle it comes due.
type Entry[T any] struct {
	V  T
	At int64
}

// flitMin is the fewest bytes a walked flit takes: a tag that predicts it
// whole.
const flitMin = 1

// Walk walks list l of pool p as a checkpoint holds it: its count, then
// each value through elem, oldest first, following the links. Decoding
// empties l, makes room for the decoded count, and pushes each value elem
// decodes into the pool's cell, unless elem failed the walk.
func (l *List[T]) Walk(c *snapshot.Codec, p *Pool[T], elemMin int, elem func(*T)) {
	if !c.Decoding() {
		c.Count(l.Len(), elemMin)
		for k, i := int32(0), l.head; k < l.n; k++ {
			s := p.slot(i)
			elem(&s.v)
			i = s.next
		}
		return
	}
	for n := l.decodeCount(c, p, elemMin); n > 0 && c.Err() == nil; n-- {
		v := p.fill()
		if elem(v); c.Err() == nil {
			l.Push(p, *v)
		}
	}
}

// Walk walks timed list l as List.Walk does, each value after its due
// cycle (snapshot.Codec.Due).
func (l *TimedList[T]) Walk(c *snapshot.Codec, p *Pool[T], elemMin int, elem func(*T)) {
	if !c.Decoding() {
		c.Count(l.Len(), elemMin)
		at := l.nextAt
		for k, i := int32(0), l.l.head; k < l.l.n; k++ {
			s := p.slot(i)
			c.Due(&at)
			elem(&s.v)
			i, at = s.next, s.succAt
		}
		return
	}
	for n := l.l.decodeCount(c, p, elemMin); n > 0 && c.Err() == nil; n-- {
		var at int64
		c.Due(&at)
		v := p.fill()
		if elem(v); c.Err() == nil {
			l.Push(p, at, *v)
		}
	}
}

// decodeCount starts a decoding walk of list l: it empties l, reads the
// count, and grows the pool once for that many values.
func (l *List[T]) decodeCount(c *snapshot.Codec, p *Pool[T], elemMin int) int {
	l.Reset(p)
	n := c.Count(0, elemMin)
	p.Grow(n)
	return n
}

// fill returns the pool's cell, zeroed, for a decoding walk's elem to fill:
// what elem does with its argument is opaque to escape analysis, so a
// local would move to the heap once per value. A pool has one cell, so an
// elem must not walk another list of the same pool.
func (p *Pool[T]) fill() *T {
	var zero T
	p.cell = zero
	return &p.cell
}

// ReplayList walks flit list l of pool p as List.Walk does, push being the
// owner's push path (nil: the list's own). Its owner keeps counts or masks
// beside the list, a function of the flits and so not in the stream:
// decoding empties l and hands each flit to push, which rebuilds them as
// the run did, or refuses the flit through Bound or Failf and so stops the
// walk.
func ReplayList(c *snapshot.Codec, p *FlitPool, l *FlitList, push func(proto.Flit)) {
	if !c.Decoding() || push == nil {
		l.Walk(c, p, flitMin, c.Flit)
		return
	}
	for n := l.decodeCount(c, p, flitMin); n > 0 && c.Err() == nil; n-- {
		var f proto.Flit
		if c.Flit(&f); c.Err() == nil {
			push(f)
		}
	}
}

// Audit checks the pool against the lists that draw from it, which lists
// hands to visit one by one (a TimedList through Slots): in-use plus free
// slots make up the capacity, and every slot sits on exactly one list, the
// free stack included — so the slots in use are exactly the values on the
// lists. It returns the first rule broken, or nil. After the first audit at
// a capacity it allocates nothing.
func (p *Pool[T]) Audit(lists func(visit func(*List[T]))) error {
	capacity := p.Cap()
	if int(p.used)+int(p.nfree) != capacity {
		return fmt.Errorf("%d slots in use + %d free != capacity %d", p.used, p.nfree, capacity)
	}
	if p.audit == nil {
		p.audit = &poolAudit[T]{visit: p.auditList}
	}
	a := p.audit
	if n := len(a.stamp); n < capacity {
		a.stamp = append(a.stamp, make([]uint32, capacity-n)...)
	}
	if a.gen++; a.gen == 0 {
		clear(a.stamp)
		a.gen = 1
	}
	a.marked, a.list, a.err = 0, -1, nil
	lists(a.visit)
	p.follow(-1, p.free, p.nfree)
	if a.err != nil || a.marked == capacity {
		return a.err
	}
	for i := range capacity {
		if a.stamp[i] != a.gen {
			return fmt.Errorf("slot %d is on no list", i)
		}
	}
	return nil
}

// auditList is Audit's visit: it follows the next list.
func (p *Pool[T]) auditList(l *List[T]) {
	a := p.audit
	if a.list++; a.err != nil || l.n == 0 {
		return
	}
	if last := p.follow(a.list, l.head, l.n); a.err == nil && last != l.tail {
		a.err = fmt.Errorf("%s ends at slot %d, its tail names %d", listName(a.list), last, l.tail)
	}
}

// follow marks the n slots linked on from head, the audit's list-th, and
// returns the last.
func (p *Pool[T]) follow(list int, head, n int32) int32 {
	a := p.audit
	i := head
	for k := int32(0); k < n && a.err == nil; k++ {
		if k > 0 {
			i = p.slot(i).next
		}
		switch {
		case i < 0 || int(i) >= len(a.stamp):
			a.err = fmt.Errorf("%s links slot %d, outside capacity %d", listName(list), i, len(a.stamp))
		case a.stamp[i] == a.gen:
			a.err = fmt.Errorf("slot %d sits on two lists (again on %s)", i, listName(list))
		default:
			a.stamp[i] = a.gen
			a.marked++
		}
	}
	return i
}

// listName names an audited list: its place in the order lists visited
// them, or the free stack.
func listName(list int) string {
	if list < 0 {
		return "the free stack"
	}
	return fmt.Sprintf("queue %d", list)
}
