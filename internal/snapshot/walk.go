package snapshot

import (
	"cmp"
	"slices"

	"stashsim/internal/proto"
)

// Codec is one bidirectional state walk over a Writer or a Reader. Every
// stateful type declares its dynamic state once, as a single function
// over a Codec: c.I64(&s.created) writes the field when the codec encodes
// and reads it when it decodes, so the field list, its order and its wire
// widths cannot drift between the two directions. Lines that only make
// sense one way — validation, rebuilding derived state, drawing records
// from a freelist — are gated on Decoding. Errors are the Reader's sticky
// error: after the first failure every walker reads zeros, so a walk runs
// straight through and its caller checks Err (or Close) once.
type Codec struct {
	w      *Writer
	r      *Reader
	Bounds FlitBounds        // enforced by Flit while decoding
	flit   func(*proto.Flit) // c.Flit, bound once: Flits runs once per queue of the network
}

func newCodec(w *Writer, r *Reader) *Codec {
	c := &Codec{w: w, r: r}
	c.flit = c.Flit
	return c
}

// NewEncoder returns a Codec that writes a fresh snapshot; Finish yields
// the bytes.
func NewEncoder() *Codec { return newCodec(NewWriter(), nil) }

// NewDecoder validates the header of data and returns a Codec reading it.
func NewDecoder(data []byte) (*Codec, error) {
	r, err := NewReader(data)
	if err != nil {
		return nil, err
	}
	return newCodec(nil, r), nil
}

// Decoding reports whether the walk restores state (true) or captures it.
func (c *Codec) Decoding() bool { return c.r != nil }

// Err returns the first decode error; an encoding walk cannot fail.
func (c *Codec) Err() error {
	if c.r == nil {
		return nil
	}
	return c.r.Err()
}

// Failf records a semantic decode failure (first one wins); a no-op while
// encoding, so validation needs no Decoding gate of its own.
func (c *Codec) Failf(format string, args ...any) {
	if c.r != nil {
		c.r.Failf(format, args...)
	}
}

// Finish ends an encoding walk and returns the snapshot bytes.
func (c *Codec) Finish() []byte { return c.w.Finish() }

// Close ends a decoding walk: the whole input must have been consumed.
func (c *Codec) Close() error { return c.r.Close() }

// scalar walks one field through the byte layer's get/put pair for its
// wire type: the direction branch of every scalar walker.
func scalar[T any](c *Codec, p *T, get func(*Reader) T, put func(*Writer, T)) {
	if c.r != nil {
		*p = get(c.r)
	} else {
		put(c.w, *p)
	}
}

// The scalar walkers, one per wire type of the byte layer.
func (c *Codec) U8(p *uint8)    { scalar(c, p, (*Reader).U8, (*Writer).U8) }
func (c *Codec) U16(p *uint16)  { scalar(c, p, (*Reader).U16, (*Writer).U16) }
func (c *Codec) U32(p *uint32)  { scalar(c, p, (*Reader).U32, (*Writer).U32) }
func (c *Codec) U64(p *uint64)  { scalar(c, p, (*Reader).U64, (*Writer).U64) }
func (c *Codec) I32(p *int32)   { scalar(c, p, (*Reader).I32, (*Writer).I32) }
func (c *Codec) I64(p *int64)   { scalar(c, p, (*Reader).I64, (*Writer).I64) }
func (c *Codec) F64(p *float64) { scalar(c, p, (*Reader).F64, (*Writer).F64) }
func (c *Codec) Bool(p *bool)   { scalar(c, p, (*Reader).Bool, (*Writer).Bool) }
func (c *Codec) Str(p *string)  { scalar(c, p, (*Reader).Str, (*Writer).Str) }

// Section walks a 4-character section tag: written, or consumed and
// verified.
func (c *Codec) Section(label string) {
	if c.r != nil {
		c.r.Section(label)
	} else {
		c.w.Section(label)
	}
}

// FlitBounds are the topology limits a decoded flit's index-like fields
// must respect. The proto wire codec validates what holds for any
// network (kind, class, VC, size); the output port, endpoint IDs and
// Valiant group index the switch and router code, and their ranges belong
// to the restoring network: it sets Codec.Bounds before the walk. The
// zero value checks nothing.
type FlitBounds struct{ Ports, Nodes, Groups int }

// Flit walks one flit in the canonical proto wire encoding.
func (c *Codec) Flit(f *proto.Flit) {
	if c.r == nil {
		c.w.Flit(f)
		return
	}
	*f = c.r.Flit()
	c.checkFlit(f)
}

// checkFlit is Flit's range check against the restoring network's Bounds.
func (c *Codec) checkFlit(f *proto.Flit) {
	if b := c.Bounds; b.Ports > 0 {
		if f.Out != proto.OutPending || f.VC != proto.VCStore {
			c.Bound("flit.Out", int(f.Out), 0, b.Ports)
		}
		c.Bound("flit.OrigOut", int(f.OrigOut), 0, b.Ports)
		c.Bound("flit.Src", int(f.Src), 0, b.Nodes)
		c.Bound("flit.Dst", int(f.Dst), 0, b.Nodes)
		c.Bound("flit.MidGroup", int(f.MidGroup), -1, b.Groups)
	}
}

// rng is the stream-state surface of sim.RNG (which this package cannot
// import).
type rng interface {
	State() uint64
	SetState(uint64)
}

// RNG walks one random stream's state.
func (c *Codec) RNG(r rng) {
	s := r.State()
	c.U64(&s)
	if c.r != nil {
		r.SetState(s)
	}
}

// Bound is the walk's range check for every decoded value the simulator
// later uses as an index, shift or slice bound, and for every count a
// replayed push would take past its limit: decoding fails, naming the
// field, unless lo <= v < hi. A correct run writes only values in range;
// the check exists because Restore must turn damaged input into an error,
// never into a panic cycles later. No-op while encoding.
func (c *Codec) Bound(field string, v, lo, hi int) {
	if c.r != nil && (v < lo || v >= hi) {
		c.outOfRange(field, v, lo, hi)
	}
}

// outOfRange is Bound's failure path, kept out of line so that the check
// itself inlines into the walks (a paper-scale restore runs it millions
// of times).
func (c *Codec) outOfRange(field string, v, lo, hi int) {
	c.r.Failf("%s = %d out of range [%d,%d)", field, v, lo, hi)
}

// Count walks the element count of a repeated group whose elements the
// caller walks itself: n is written when encoding, and the count read —
// validated against the bytes remaining, elemMin bytes each at least — is
// returned when decoding.
func (c *Codec) Count(n, elemMin int) int {
	if c.r != nil {
		return c.r.Count(elemMin)
	}
	c.w.Count(n)
	return n
}

// Len walks the length of a structure the restoring side has already
// rebuilt from its configuration (ports, VCs, tiles, shards): written on
// encode, compared on decode. It reports whether the walk may go on into
// the elements; a mismatch fails the decode with both lengths.
func (c *Codec) Len(what string, have, elemMin int) bool {
	if n := c.Count(have, elemMin); n != have && c.Err() == nil {
		c.Failf("%s: this run has %d, snapshot has %d", what, have, n)
	}
	return c.Err() == nil
}

// Present walks the presence bit of optional state that follows from the
// configuration or the attached observers, so both sides must agree on
// it. It reports whether the state is there to walk; a disagreement fails
// the decode, naming what.
func (c *Codec) Present(what string, have bool) bool {
	has := have
	switch c.Bool(&has); {
	case has && !have:
		c.Failf("the checkpointed run had %s, this run does not", what)
	case have && !has && c.Err() == nil:
		c.Failf("this run has %s, the checkpointed run did not", what)
	}
	return has && have && c.Err() == nil
}

// Opt walks the presence bit of an optional sink the snapshot decides:
// decoding allocates *p when the snapshot carries one and drops it
// otherwise, so a restored run records into the shapes the checkpointed
// run had. It reports whether *p is there to walk.
func Opt[T any](c *Codec, p **T) bool {
	has := *p != nil
	c.Bool(&has)
	if c.r != nil {
		if !has {
			*p = nil
		} else if *p == nil {
			*p = new(T)
		}
	}
	return has
}

// integer is any integer field type a WireN walker can carry.
type integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// wire walks an integer field whose Go type T is not its wire type W, as
// its low bits.
func wire[W, T integer](c *Codec, p *T, walk func(*Codec, *W)) {
	v := W(*p)
	if walk(c, &v); c.r != nil {
		*p = T(v)
	}
}

// Wire8 walks such a field through a one-byte slot: an int8 -1 travels as
// 0xFF and comes back as -1; a field wider than the slot must hold a
// value that fits. Wire16, Wire32 and Wire64 are the wider slots.
func Wire8[T integer](c *Codec, p *T)  { wire(c, p, (*Codec).U8) }
func Wire16[T integer](c *Codec, p *T) { wire(c, p, (*Codec).U16) }
func Wire32[T integer](c *Codec, p *T) { wire(c, p, (*Codec).U32) }
func Wire64[T integer](c *Codec, p *T) { wire(c, p, (*Codec).U64) }

// Slice walks an append-built slice: a count, then the elements in order.
// Decoding validates the count against the bytes remaining (elemMin bytes
// each at least), truncates *s and appends, reusing its backing array.
func Slice[T any](c *Codec, s *[]T, elemMin int, elem func(*T)) {
	n := c.Count(len(*s), elemMin)
	if c.r != nil {
		*s = (*s)[:0]
	}
	for i := 0; i < n; i++ {
		if c.r != nil {
			var zero T
			*s = append(*s, zero)
		}
		if elem(&(*s)[i]); c.Err() != nil {
			*s = (*s)[:i]
			return
		}
	}
}

// FIFO is the queue surface Ring walks; ring buffers keep their storage
// layout to themselves, and only the queue order is state. At(i) is the
// i-th oldest entry; Grow(n) makes room for n more, so that decoding sizes
// a ring once from its count.
type FIFO[T any] interface {
	Len() int
	At(i int) *T
	Push(T)
	Reset()
	Grow(n int)
}

// Ring walks a FIFO, oldest entry first: encoding reads its entries in
// place, decoding empties the queue, reserves the decoded count and pushes
// each decoded entry. Most queues of a network are empty, so an empty one
// costs no more than its count.
func Ring[T any](c *Codec, q FIFO[T], elemMin int, elem func(*T)) {
	if c.r != nil {
		q.Reset()
	}
	n := c.Count(q.Len(), elemMin)
	if n == 0 {
		return
	}
	if c.r == nil {
		for i := 0; i < n; i++ {
			elem(q.At(i))
		}
		return
	}
	q.Grow(n)
	v := new(T) // one cell per walk: what elem does with its argument is opaque to escape analysis
	for i := 0; i < n; i++ {
		var zero T
		*v = zero
		if elem(v); c.r.Err() != nil {
			return
		}
		q.Push(*v)
	}
}

// Flits walks a FIFO of flits (see Ring): by far the most numerous queue
// of a network, so it gets the one non-generic entry point.
func (c *Codec) Flits(q FIFO[proto.Flit]) {
	if c.r == nil {
		Ring(c, q, proto.FlitWireSize, c.flit)
		return
	}
	c.ReplayFlits(q, q.Push)
}

// ReplayFlits walks a FIFO of flits whose owner keeps counts or masks
// beside it, a function of the flits and so not in the stream. Encoding is
// Flits'; decoding empties q, reserves the decoded count, and hands each
// flit to push, the owner's push path, which rebuilds them as the run did,
// or refuses the flit through Bound or Failf and so stops the walk. It is
// not generic, so that the caller's push closure stays on the stack.
func (c *Codec) ReplayFlits(q FIFO[proto.Flit], push func(proto.Flit)) {
	if c.r == nil {
		Ring(c, q, proto.FlitWireSize, c.flit)
		return
	}
	q.Reset()
	n := c.r.Count(proto.FlitWireSize)
	q.Grow(n)
	// The flits have a fixed size, so the count's check that they are all
	// there covers the whole block: each is decoded in place, past the
	// Reader's per-value checks, with the proto codec's and Flit's range
	// checks.
	for ; n > 0 && c.r.err == nil; n-- {
		f, _, err := proto.DecodeFlit(c.r.buf[c.r.off:])
		if err != nil {
			c.r.Failf("flit at offset %d: %v", c.r.off, err)
			return
		}
		c.r.off += proto.FlitWireSize
		if c.checkFlit(&f); c.r.err == nil {
			push(f)
		}
	}
}

// Map walks a map in ascending key order, the one place checkpoint code
// iterates a map: the bytes must be a function of the state, not of Go's
// iteration order. Decoding clears *m (allocating it on the first entry,
// so lazily-built maps stay nil while empty) and requires the keys to
// ascend strictly, which rejects duplicates and keeps the encoding
// canonical. val receives a zero V to fill when decoding.
func Map[K cmp.Ordered, V any](c *Codec, m *map[K]V, elemMin int, key func(*K), val func(*V)) {
	if c.r == nil {
		keys := make([]K, 0, len(*m))
		//lint:allow determinism -- map-key collection, sorted before use
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.w.Count(len(keys))
		for _, k := range keys {
			v := (*m)[k]
			key(&k)
			val(&v)
		}
		return
	}
	n := c.r.Count(elemMin)
	if clear(*m); n == 0 {
		return
	}
	if *m == nil {
		*m = make(map[K]V, n)
	}
	k, v := new(K), new(V) // see Ring
	var prev K
	for i := 0; i < n; i++ {
		var zero V
		*v = zero
		key(k)
		if val(v); c.r.Err() != nil {
			return
		}
		if i > 0 && *k <= prev {
			c.r.Failf("map keys out of order: %v after %v", *k, prev)
			return
		}
		(*m)[*k], prev = *v, *k
	}
}
