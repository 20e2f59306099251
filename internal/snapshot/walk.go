package snapshot

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
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
//
// A queue's flits and a timed path's due cycles are written relative to
// the entry before them (Flit, Due). That context is the queue's: every
// count walked resets it, so a queue is read without what came before
// its count, and each sized section decodes on its own.
type Codec struct {
	w      *Writer
	r      *Reader
	Bounds FlitBounds // enforced by Flit while decoding
	cells  []any      // scratch cells not in use, at most one of each type (see take)

	flits FlitQueue // the flits walked since the last count
	due   int64     // the last due cycle walked since the last count, else 0
}

func newCodec(w *Writer, r *Reader) *Codec { return &Codec{w: w, r: r} }

// Encode returns the snapshot walk writes. It runs walk twice over one
// Codec: first into a measure sink, then into a byte sink of exactly the
// measured size, so the snapshot is allocated once, at its length, and
// never copied. An encoding walk must not change what it walks; the byte
// sink panics if the second pass writes more or fewer bytes than the first.
func Encode(walk func(*Codec)) []byte {
	c := newCodec(newMeasure(), nil)
	walk(c)
	c.w = newBytes(c.w.size())
	walk(c)
	return c.w.Finish()
}

// Hasher digests state walks: it runs a walk into a hash sink and returns
// the crc64-ECMA of the snapshot bytes it writes, the header's unpatched
// length included, keeping none of them. It keeps its sink's buffer and
// the walkers' scratch cells from one walk to the next, so a caller that
// digests every k cycles allocates nothing per walk that grows with the
// state. The zero value is ready to use.
type Hasher struct {
	c   *Codec
	sum uint64
}

// Sum returns the digest of the bytes walk writes.
func (h *Hasher) Sum(walk func(*Codec)) uint64 {
	if h.c == nil {
		h.c = newCodec(newHash(&h.sum), nil)
	}
	h.sum = 0
	h.c.w.begin()
	walk(h.c)
	h.c.w.flush()
	return h.sum
}

// NewDecoder validates the header of data and returns a Codec reading it.
func NewDecoder(data []byte) (*Codec, error) {
	r, err := NewReader(data)
	if err != nil {
		return nil, err
	}
	return newCodec(nil, r), nil
}

// take returns a scratch cell of type T for one walker call to use and
// give back: the cells a walker hands to its element walks, whose address
// escapes through them, so that a walk allocates them once per type and not
// once per map. A walker nested in another of the same type takes a
// fresh cell, since the outer one is out.
func take[T any](c *Codec) *T {
	for i, s := range c.cells {
		if p, ok := s.(*T); ok {
			last := len(c.cells) - 1
			c.cells[i], c.cells[last] = c.cells[last], nil
			c.cells = c.cells[:last]
			return p
		}
	}
	return new(T)
}

// give returns a cell taken from c.
func give[T any](c *Codec, p *T) { c.cells = append(c.cells, p) }

// Decoding reports whether the walk restores state (true) or captures it.
func (c *Codec) Decoding() bool { return c.r != nil }

// Offset returns the input offset the next decoded value starts at, for
// an error that names it; 0 while encoding.
func (c *Codec) Offset() int {
	if c.r == nil {
		return 0
	}
	return c.r.off
}

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

// Close ends a decoding walk: the whole input must have been consumed.
func (c *Codec) Close() error { return c.r.Close() }

// SectionWalker walks the sections of a Sections walk, section i in
// WalkSection(c, i).
type SectionWalker interface {
	WalkSection(c *Codec, i int)
}

// Sections walks n sized sections, section i through walk: each goes
// to the stream behind its byte length (see Writer.openSection), so that a
// decoder can split the input into the n sections before it decodes any,
// and decode each on a Codec of its own. Encoding walks them in order on c
// itself, so a Checkpoint is still one allocation and a digest one pass.
//
// Decoding hops the chain of lengths, checking each against the bytes
// left, and then runs every section through each(n, body), which may run
// body(i) for different i at once: so section i's walk must touch nothing
// another section's walk touches. body walks section i on a Codec whose
// input ends where the section does, and requires it to be read to its
// last byte, so a walk that reads past its section or stops short of its
// end fails at that offset. Offsets stay absolute. The error reported is
// the first in section order, with the section named: what, its index and
// its bytes.
//
// A walker that is a pointer already on the heap costs the walk no
// allocation, so a digest of sized sections allocates nothing.
func (c *Codec) Sections(what string, n int, each func(n int, body func(i int)), walk SectionWalker) {
	if !c.Len("sized sections", n, 4+1) {
		return
	}
	if c.r == nil {
		for i := range n {
			at := c.w.openSection()
			walk.WalkSection(c, i)
			c.w.closeSection(at)
		}
		return
	}
	r := c.r
	type section struct {
		c          *Codec
		start, end int // the bytes after the length prefix
	}
	secs := make([]section, n)
	for i := range secs {
		at := r.off
		if r.Remaining() < 4 {
			r.Failf("%s %d: section length at offset %d runs past the end of the input (%d bytes left)", what, i, at, r.Remaining())
			return
		}
		size := int(binary.LittleEndian.Uint32(r.buf[at:]))
		r.off += 4
		switch {
		case size == 0:
			r.Failf("%s %d: section length 0 at offset %d", what, i, at)
			return
		case size > r.Remaining():
			r.Failf("%s %d: section length %d at offset %d runs past the end of the input (%d bytes left)", what, i, size, at, r.Remaining())
			return
		default:
			secs[i].start, secs[i].end = r.off, r.off+size
			r.off = secs[i].end
		}
	}
	each(n, func(i int) {
		// A section's Codec is built on the worker that walks it: its
		// reader and queue context are written at every value, and built
		// here they share no cache line with a section another worker
		// walks at the same time.
		s := &secs[i]
		s.c = newCodec(nil, &Reader{buf: r.buf[:s.end], off: s.start})
		s.c.Bounds = c.Bounds
		walk.WalkSection(s.c, i)
		s.c.Close()
	})
	for i, s := range secs {
		if err := s.c.Err(); err != nil {
			r.fail(fmt.Errorf("%w (in %s %d's section, bytes %d to %d)", err, what, i, s.start, s.end))
			return
		}
	}
}

// The scalar walkers, one per wire type of the byte layer. Each is the
// direction branch around a getter and a put that inline, so a walked
// field costs one call; the integer walkers inline into the caller and
// make theirs to uvarint, which reads or writes a one-byte varint — most
// of a snapshot — itself.
func (c *Codec) U8(p *uint8) {
	if c.r != nil {
		*p = c.r.U8()
	} else {
		c.w.U8(*p)
	}
}

func (c *Codec) U16(p *uint16) {
	if v := uint64(*p); c.uvarint(&v, 16) {
		*p = uint16(v)
	}
}

func (c *Codec) U32(p *uint32) {
	if v := uint64(*p); c.uvarint(&v, 32) {
		*p = uint32(v)
	}
}

func (c *Codec) U64(p *uint64) { c.uvarint(p, 64) }

func (c *Codec) I32(p *int32) {
	if v := zigzag(int64(*p)); c.uvarint(&v, 32) {
		*p = int32(unzigzag(v))
	}
}

func (c *Codec) I64(p *int64) {
	if v := zigzag(*p); c.uvarint(&v, 64) {
		*p = unzigzag(v)
	}
}

// uvarint walks *v as a varint of at most bits bits, and reports whether
// it decoded one into *v.
func (c *Codec) uvarint(v *uint64, bits int) bool {
	if r := c.r; r != nil {
		if b, ok := r.oneByte(); ok {
			*v = b
		} else {
			*v = r.varint(bits)
		}
		return true
	}
	if !c.w.oneByte(*v) {
		c.w.U64(*v)
	}
	return false
}

func (c *Codec) F64(p *float64) {
	if c.r != nil {
		*p = c.r.F64()
	} else {
		c.w.F64(*p)
	}
}

func (c *Codec) Bool(p *bool) {
	if c.r != nil {
		*p = c.r.Bool()
	} else {
		c.w.Bool(*p)
	}
}

func (c *Codec) Str(p *string) {
	if c.r != nil {
		*p = c.r.Str()
	} else {
		c.w.Str(*p)
	}
}

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

// Flit walks one flit of a queue, as its difference from the flit walked
// before it since the last count (see Writer.Flit). Decoding applies the
// proto wire codec's range checks and the restoring network's Bounds.
func (c *Codec) Flit(f *proto.Flit) {
	if c.r == nil {
		c.w.Flit(f, &c.flits)
		return
	}
	c.r.Flit(f, &c.flits)
	c.checkFlit(f)
}

// Due walks the due cycle of an entry on a timed path — a link's flits or
// credits, a retention window, the side band — whose entries come
// due in non-decreasing order. It is written as its distance from the
// due cycle walked before it since the last count (the first entry's from
// cycle 0), so that entries a cycle or two apart cost a byte each.
// Decoding refuses a distance that would put the path out of order.
func (c *Codec) Due(at *int64) {
	off := c.Offset()
	if u := zigzag(*at - c.due); c.uvarint(&u, 64) {
		d := unzigzag(u)
		if d < 0 || d > math.MaxInt64-c.due {
			c.r.Failf("due delta %d at offset %d puts its path out of order (the entry before is due at %d)", d, off, c.due)
			d = 0
		}
		*at = c.due + d
	}
	c.due = *at
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
//
// A count starts a queue: it resets the context Flit and Due write
// against.
func (c *Codec) Count(n, elemMin int) int {
	c.flits.follows, c.due = false, 0
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

// Map walks a map in ascending key order, the one place checkpoint code
// iterates a map: the bytes must be a function of the state, not of Go's
// iteration order. Decoding clears *m (allocating it on the first entry,
// so lazily-built maps stay nil while empty) and requires the keys to
// ascend strictly, which rejects duplicates and keeps the encoding
// canonical. val receives a zero V to fill when decoding.
func Map[K cmp.Ordered, V any](c *Codec, m *map[K]V, elemMin int, key func(*K), val func(*V)) {
	cell := take[mapCell[K, V]](c)
	defer give(c, cell)
	if c.r == nil {
		keys := cell.keys[:0]
		//lint:allow determinism -- map-key collection, sorted before use
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.Count(len(keys), elemMin)
		for _, k := range keys {
			cell.k, cell.v = k, (*m)[k]
			key(&cell.k)
			val(&cell.v)
		}
		cell.keys = keys
		return
	}
	n := c.Count(0, elemMin)
	if clear(*m); n == 0 {
		return
	}
	if *m == nil {
		*m = make(map[K]V, n)
	}
	var prev K
	for i := 0; i < n; i++ {
		var zero V
		cell.v = zero
		key(&cell.k)
		if val(&cell.v); c.r.Err() != nil {
			return
		}
		if i > 0 && cell.k <= prev {
			c.r.Failf("map keys out of order: %v after %v", cell.k, prev)
			return
		}
		(*m)[cell.k], prev = cell.v, cell.k
	}
}

// mapCell is Map's scratch: the sorted keys while encoding, and the key
// and value the element walks are handed.
type mapCell[K, V any] struct {
	keys []K
	k    K
	v    V
}
