package buffer

import (
	"math"
	"math/bits"
)

// Retention is an output port's retention window: the cycles at which the
// space of its sent flits comes back. It holds no flits and no deadlines,
// one bit per cycle of the port's round trip instead. A port releases what
// is due before it sends and sends at most one flit a cycle, always due
// one RTT later, so the deadlines it holds strictly increase and the
// newest is less than one RTT after the oldest: a ring of at least RTT
// bits, laid out relative to the oldest deadline, holds them exactly.
// A global port of the paper network (650-cycle links) takes 21 words
// however busy it is, where a ring of 8-byte deadlines took up to the
// port's capacity in entries and never shrank.
type Retention struct {
	// bits is a ring of len(bits)*64 cycles, and bit head is the oldest
	// deadline's.
	bits  []uint64 //stashsim:derived -- the deadlines' layout: the walk writes them through Each, and decoding pushes them
	span  int64    // the RTT: every held deadline is less than span after the oldest
	head  int      //stashsim:derived -- the deadlines' layout: the walk writes them through Each, and decoding pushes them
	n     int      //stashsim:derived -- the walk writes the deadlines' count, and decoding pushes them
	front int64    // the oldest deadline, when n > 0
	back  int64    // the newest deadline, when n > 0
}

// RetentionWords returns how many bitmap words a retention window of rtt
// cycles takes.
func RetentionWords(rtt int64) int { return int((rtt + 63) / 64) }

// NewRetention builds an empty window for deadlines that span less than
// rtt cycles, on words, RetentionWords(rtt) zero words.
func NewRetention(rtt int64, words []uint64) Retention {
	if rtt < 1 {
		panic("buffer: retention window shorter than one cycle")
	}
	if len(words) != RetentionWords(rtt) {
		panic("buffer: retention bitmap does not match its window")
	}
	return Retention{bits: words, span: rtt}
}

// Len returns the number of deadlines held.
//
//stashsim:noalloc
func (r *Retention) Len() int { return r.n }

// Fits reports whether Push(at) is valid: the window is empty, or at is
// later than its newest deadline and less than the window after its
// oldest.
//
//stashsim:noalloc
func (r *Retention) Fits(at int64) bool {
	return r.n == 0 || at > r.back && at-r.front < r.span
}

// Push adds a deadline; it panics unless Fits(at).
//
//stashsim:noalloc
func (r *Retention) Push(at int64) {
	if r.n == 0 {
		r.head, r.front = 0, at
	} else if at <= r.back || at-r.front >= r.span { // !Fits(at), spelled out so that Push inlines
		panic("buffer: retention deadline repeated, earlier, or a window or more after the oldest")
	}
	pos := r.head + int(at-r.front)
	if pos >= len(r.bits)<<6 {
		pos -= len(r.bits) << 6
	}
	r.bits[pos>>6] |= 1 << uint(pos&63)
	r.back = at
	r.n++
}

// Release drops every deadline that is <= now.
//
//stashsim:noalloc
func (r *Retention) Release(now int64) {
	for r.n > 0 && r.front <= now {
		r.bits[r.head>>6] &^= 1 << uint(r.head&63)
		if r.n--; r.n > 0 {
			pos, d := r.seek(r.head)
			r.head, r.front = pos, r.front+int64(d)
		}
	}
}

// seek returns the first set bit at or after bit pos, going round the
// ring, and its distance from pos. The window must hold a deadline there
// or later, so the scan ends within one turn.
//
//stashsim:noalloc
func (r *Retention) seek(pos int) (at, d int) {
	w := pos >> 6
	m := r.bits[w] &^ (1<<uint(pos&63) - 1)
	for m == 0 {
		if w++; w == len(r.bits) {
			w = 0
		}
		m = r.bits[w]
	}
	at = w<<6 | bits.TrailingZeros64(m)
	if d = at - pos; d < 0 {
		d += len(r.bits) << 6
	}
	return at, d
}

// FrontDue reports whether the oldest deadline has passed.
//
//stashsim:noalloc
func (r *Retention) FrontDue(now int64) bool { return r.n > 0 && r.front <= now }

// NextAt returns the oldest deadline, math.MaxInt64 when empty.
//
//stashsim:noalloc
func (r *Retention) NextAt() int64 {
	if r.n == 0 {
		return math.MaxInt64
	}
	return r.front
}

// Reset empties the window and keeps its bitmap.
func (r *Retention) Reset() {
	clear(r.bits)
	r.n = 0
}

// Each calls visit with every deadline held, oldest first.
func (r *Retention) Each(visit func(at int64)) {
	pos, at := r.head, r.front
	for left := r.n; left > 0; left-- {
		if visit(at); left == 1 {
			return
		}
		if pos++; pos == len(r.bits)<<6 {
			pos = 0
		}
		next, d := r.seek(pos)
		pos, at = next, at+1+int64(d)
	}
}
