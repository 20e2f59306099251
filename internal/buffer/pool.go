package buffer

import (
	"fmt"

	"stashsim/internal/proto"
	"stashsim/internal/snapshot"
)

// FlitPool is one switch's flit storage, and FlitList a FIFO threaded
// through it: the DAMQ's per-VC queues, the output buffer's VCs, the tiles'
// row buffers, the ports' column buffers and the stash retrieval queue all
// draw their slots from the pool of the switch that holds them. A slot is
// {flit, next}; the slots live in fixed chunks that never move, so a
// pointer to a queued flit stays valid until its slot is freed, and free
// slots form a LIFO stack. An empty list is 12 bytes and holds no storage,
// and moving a flit from one stage's queue to the next (Unlink, then Link)
// relinks its slot instead of copying the flit. The pool grows by one chunk
// when the stack runs dry and never shrinks, so its capacity is the most
// flits its switch has held at once, rounded up to a chunk.
//
// Slot numbers record the order flits happened to arrive in — a restored
// run numbers the same queues differently — so nothing may decide anything
// by them, and a checkpoint walks the lists, never the pool.
type FlitPool struct {
	chunks []*[PoolChunk]poolSlot
	free   int32 // top of the free stack; meaningless when nfree is zero
	nfree  int32
	used   int32
	peak   int32

	walk listCursor // the list FIFO presents; see FIFO
}

// PoolChunk is the number of slots a FlitPool grows by.
const PoolChunk = 1 << chunkBits

const chunkBits = 6

type poolSlot struct {
	f    proto.Flit
	next int32 // the next slot of the list or the free stack this slot is on
}

// FlitList is a FIFO of flits held in a FlitPool: the slot numbers of its
// oldest and newest flit, linked through the slots, and its length. The
// zero value is an empty list. Every method takes the pool the list draws
// from.
type FlitList struct {
	head, tail int32 // meaningless when n is zero
	n          int32
}

//stashsim:noalloc
func (p *FlitPool) slot(i int32) *poolSlot { return &p.chunks[i>>chunkBits][i&(PoolChunk-1)] }

// Flit returns the flit in slot i.
//
//stashsim:noalloc
func (p *FlitPool) Flit(i int32) *proto.Flit { return &p.slot(i).f }

// Put stores f in a free slot, growing the pool by a chunk when none is
// free, and returns the slot, which the caller links onto a list.
//
//stashsim:noalloc
func (p *FlitPool) Put(f proto.Flit) int32 {
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
	s.f = f
	return i
}

// Take frees slot i, which must be on no list, and returns its flit.
//
//stashsim:noalloc
func (p *FlitPool) Take(i int32) proto.Flit {
	s := p.slot(i)
	s.next = p.free
	p.free = i
	p.nfree++
	p.used--
	return s.f
}

// grow adds one chunk of free slots, the lowest on top.
//
//stashsim:noalloc
func (p *FlitPool) grow() {
	base := int32(len(p.chunks)) << chunkBits
	//lint:allow allocfree -- one chunk when the free stack runs dry: capacity follows the high-water mark, never the run's length
	p.chunks = append(p.chunks, new([PoolChunk]poolSlot))
	for i := base + PoolChunk - 1; i >= base; i-- {
		p.slot(i).next = p.free
		p.free = i
	}
	p.nfree += PoolChunk
}

// Grow makes room for n more flits, so that the next n Puts take no chunk.
func (p *FlitPool) Grow(n int) {
	for int(p.nfree) < n {
		p.grow()
	}
}

// Cap returns the slots the pool holds, InUse those on a list, and Peak
// the most that have been in use at once.
func (p *FlitPool) Cap() int   { return len(p.chunks) * PoolChunk }
func (p *FlitPool) InUse() int { return int(p.used) }
func (p *FlitPool) Peak() int  { return int(p.peak) }

// Len returns the number of queued flits.
//
//stashsim:noalloc
func (l *FlitList) Len() int { return int(l.n) }

// Empty reports whether the list holds no flits.
//
//stashsim:noalloc
func (l *FlitList) Empty() bool { return l.n == 0 }

// Link appends slot i, which must be in use and on no list.
//
//stashsim:noalloc
func (l *FlitList) Link(p *FlitPool, i int32) {
	if l.n == 0 {
		l.head = i
	} else {
		p.slot(l.tail).next = i
	}
	l.tail = i
	l.n++
}

// Unlink removes the oldest slot and returns it, still holding its flit:
// the caller links it onto another list or Takes it. It panics when empty.
//
//stashsim:noalloc
func (l *FlitList) Unlink(p *FlitPool) int32 {
	if l.n == 0 {
		panic("buffer: unlink from empty flit list")
	}
	i := l.head
	l.head = p.slot(i).next
	l.n--
	return i
}

// Push appends a copy of f.
//
//stashsim:noalloc
func (l *FlitList) Push(p *FlitPool, f proto.Flit) { l.Link(p, p.Put(f)) }

// Pop removes and returns the oldest flit, freeing its slot. It panics
// when empty.
//
//stashsim:noalloc
func (l *FlitList) Pop(p *FlitPool) proto.Flit { return p.Take(l.Unlink(p)) }

// Front returns the oldest flit in place; the pointer stays valid until
// its slot is freed. It panics when empty.
//
//stashsim:noalloc
func (l *FlitList) Front(p *FlitPool) *proto.Flit {
	if l.n == 0 {
		panic("buffer: front of empty flit list")
	}
	return p.Flit(l.head)
}

// Reset frees every slot of the list.
func (l *FlitList) Reset(p *FlitPool) {
	for l.n > 0 {
		p.Take(l.Unlink(p))
	}
}

// listCursor is the list a pool presents as a FIFO, and the last position
// At was asked for, so a walk in queue order follows each link once.
type listCursor struct {
	l   *FlitList
	at  int // index of cur; -1 before the first At
	cur int32
}

// poolFIFO is a FlitPool seen as the FIFO of its cursor's list: a pointer
// conversion, so handing one to the codec allocates nothing.
type poolFIFO FlitPool

// FIFO presents list l as the queue snapshot.Ring and Codec.ReplayFlits
// walk, oldest flit first. A pool presents one list at a time: the result
// is good until the next FIFO call on the same pool.
func (p *FlitPool) FIFO(l *FlitList) snapshot.FIFO[proto.Flit] {
	p.walk = listCursor{l: l, at: -1}
	return (*poolFIFO)(p)
}

func (q *poolFIFO) pool() *FlitPool { return (*FlitPool)(q) }

func (q *poolFIFO) Len() int { return q.walk.l.Len() }

func (q *poolFIFO) At(i int) *proto.Flit {
	w := &q.walk
	if i < 0 || i >= w.l.Len() {
		panic("buffer: flit list index out of range")
	}
	if w.at < 0 || i < w.at {
		w.at, w.cur = 0, w.l.head
	}
	for ; w.at < i; w.at++ {
		w.cur = q.pool().slot(w.cur).next
	}
	return q.pool().Flit(w.cur)
}

func (q *poolFIFO) Push(f proto.Flit) { q.walk.l.Push(q.pool(), f) }

func (q *poolFIFO) Reset() {
	q.walk.l.Reset(q.pool())
	q.walk.at = -1
}

func (q *poolFIFO) Grow(n int) { q.pool().Grow(n) }

// Audit checks the pool against the lists that draw from it, which lists
// hands to visit one by one: in-use plus free slots make up the capacity,
// and every slot sits on exactly one list, the free stack included — so
// the slots in use are exactly the flits on the lists. It returns the
// first rule broken, or nil.
func (p *FlitPool) Audit(lists func(visit func(*FlitList))) error {
	capacity := p.Cap()
	if int(p.used)+int(p.nfree) != capacity {
		return fmt.Errorf("%d slots in use + %d free != capacity %d", p.used, p.nfree, capacity)
	}
	mark := make([]bool, capacity)
	var err error
	name := func(list int) string {
		if list < 0 {
			return "the free stack"
		}
		return fmt.Sprintf("queue %d", list)
	}
	// follow marks the n slots linked on from head, and returns the last.
	follow := func(list int, head, n int32) int32 {
		i := head
		for k := int32(0); k < n && err == nil; k++ {
			if k > 0 {
				i = p.slot(i).next
			}
			switch {
			case i < 0 || int(i) >= capacity:
				err = fmt.Errorf("%s links slot %d, outside capacity %d", name(list), i, capacity)
			case mark[i]:
				err = fmt.Errorf("slot %d sits on two lists (again on %s)", i, name(list))
			default:
				mark[i] = true
			}
		}
		return i
	}
	list := -1
	lists(func(l *FlitList) {
		if list++; err != nil || l.n == 0 {
			return
		}
		if last := follow(list, l.head, l.n); err == nil && last != l.tail {
			err = fmt.Errorf("%s ends at slot %d, its tail names %d", name(list), last, l.tail)
		}
	})
	follow(-1, p.free, p.nfree)
	if err != nil {
		return err
	}
	for i, on := range mark {
		if !on {
			return fmt.Errorf("slot %d is on no list", i)
		}
	}
	return nil
}
