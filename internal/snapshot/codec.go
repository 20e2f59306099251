// Package snapshot implements the low-level binary codec for bit-exact
// simulator checkpoints: a versioned, self-describing, little-endian
// format with section tags, length-guarded strings and counts, and a
// sticky-error reader that makes decode paths safe against truncated,
// version-skewed, or hostile input (no panics, no unbounded allocation).
//
// The package deliberately depends only on the standard library and
// internal/proto (for the canonical flit wire format). Writer and Reader
// are the byte layer; every stateful package declares its own unexported
// fields once, as a state walk over the bidirectional Codec that drives
// them (walk.go), and internal/network orchestrates the whole-network
// walk. Higher layers never touch raw bytes.
//
// Format: a 14-byte header — magic "STAS" (u32), version (u16), total
// byte length including the header (u64), all fixed-width little-endian —
// followed by tagged sections. Sized sections (Codec.Sections) carry
// their byte length in front as a fixed-width u32, so a decoder can find
// each one without decoding those before it and decode them
// independently.
// Integers are minimal unsigned LEB128 varints, the signed ones zigzag
// coded, so the zeros and small counts most of a network's state holds
// cost a byte each; floats are fixed-width IEEE-754 bit patterns;
// booleans and bytes are single bytes, booleans canonical 0/1; strings
// and repeated groups are prefixed with varint counts validated against
// the bytes remaining, at one byte per element at least, so a hostile
// count can never force an allocation larger than a fixed multiple of
// the input. A flit in a queue is written as its difference from the
// queue's previous flit (Writer.Flit). Every encoding is canonical: the
// reader refuses a varint that is not minimal, and a flit field written
// though it equals its prediction.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
)

const (
	// Magic identifies a stashsim snapshot ("STAS", little-endian).
	Magic uint32 = 0x53544153
	// Version is the current snapshot format version. Readers reject any
	// other version: the format describes unexported simulator state, so
	// cross-version compatibility is out of scope by design. Version 2 walks
	// the queues alone, not the counts and masks kept beside them; version 3
	// walks the observers as one named list, not a presence bit each;
	// version 4 walks each switch, with its endpoints and the wire paths its
	// pools hold, as one sized section; version 5 writes integers as
	// varints, a flit in a queue as its difference from the one before, and
	// a due cycle on a timed path as its distance from the one before;
	// version 6 writes a lock's packet only while the lock is held, an
	// accumulator's sum and extremes only once it has a count, and an ECN
	// window only while it differs from a fresh one; version 7 writes each
	// resend ledger once (a switch's tracked packets in one map, each with
	// its end port, and an endpoint's outstanding packets, each followed by
	// its timer, then the ledger's timer list), a stash pool's live copies
	// in one map with their retained payloads, and no drop count on a link;
	// version 8 walks each dragonfly group, whose switches share their
	// pools, as one sized section, a wormhole lock as a bit of a VC mask,
	// a credit on the wire as one entry of its own (not a cycle's batch),
	// and no end port on an in-flight parity rebuild.
	Version uint16 = 8
	// headerSize is magic + version + total length.
	headerSize = 4 + 2 + 8
)

// Writer encodes one snapshot into a sink. It appends into its buffer,
// which never grows, and hands the buffer to the sink whenever the next
// value would not fit. A walk that encodes runs over one of three sinks:
//
//   - measure: counts the bytes and keeps none;
//   - bytes: a buffer of the measured size (and room for the longest
//     value past it, see newBytes), which is the snapshot and so never
//     fills before the walk ends;
//   - hash: feeds each full buffer to crc64-ECMA and keeps no bytes.
//
// Encode and Hasher (walk.go) pair a sink with a Codec; the zero value is
// not usable.
type Writer struct {
	buf   []byte       // bytes not yet handed to sink; never grown past its capacity
	done  int          // bytes handed to sink before buf
	sink  func([]byte) // takes each full buffer
	patch bool         // the bytes sink: it holds every byte, so a section's length is patched in place
}

// scratchSize is the buffer of the measure and hash sinks: room for every
// value the byte layer writes whole, a flit included.
const scratchSize = 4 << 10

// newWriter returns a Writer over buf and sink, begun.
func newWriter(buf []byte, sink func([]byte)) *Writer {
	w := &Writer{buf: buf, sink: sink}
	w.begin()
	return w
}

// begin starts a snapshot, dropping anything buffered: the header fields
// are pre-written (the total length is patched by Finish).
func (w *Writer) begin() {
	w.buf, w.done = w.buf[:0], 0
	w.buf = binary.LittleEndian.AppendUint32(w.buf, Magic)
	w.buf = binary.LittleEndian.AppendUint16(w.buf, Version)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, 0) // total length, patched by Finish
}

// newMeasure returns a measure sink: size is the length of what was written.
func newMeasure() *Writer { return newWriter(make([]byte, 0, scratchSize), func([]byte) {}) }

// maxRoom is the most room a value asks for before it is written: a
// flit's longest encoding, which is longer than any varint.
const maxRoom = maxFlitSize

// newBytes returns a byte sink for a snapshot of exactly size bytes. Its
// buffer has maxRoom bytes more, for the value written last to ask room
// for its longest encoding in; Finish hands back the size bytes alone. It
// refuses to write past them: a walk that writes more than it measured
// changed the state it walks.
func newBytes(size int) *Writer {
	w := newWriter(make([]byte, 0, size+maxRoom), func([]byte) {
		panic(fmt.Sprintf("snapshot: the walk wrote past the %d bytes it measured: an encoding walk must not change the state it walks", size))
	})
	w.patch = true
	return w
}

// ecma is the crc64 table of the hash sink.
var ecma = crc64.MakeTable(crc64.ECMA)

// newHash returns a hash sink that folds every byte handed to it into the
// crc64-ECMA in *sum; flush hands over the last ones.
func newHash(sum *uint64) *Writer {
	return newWriter(make([]byte, 0, scratchSize), func(p []byte) { *sum = crc64.Update(*sum, ecma, p) })
}

// size returns the number of bytes written so far, the header included.
func (w *Writer) size() int { return w.done + len(w.buf) }

// flush hands the buffered bytes to the sink. It is kept out of line so
// that room, and with it every typed append, inlines.
//
//go:noinline
func (w *Writer) flush() {
	w.sink(w.buf)
	w.done += len(w.buf)
	w.buf = w.buf[:0]
}

// room makes room in the buffer for n more bytes, n at most scratchSize.
func (w *Writer) room(n int) {
	if cap(w.buf)-len(w.buf) < n {
		w.flush()
	}
}

// raw appends s, flushing as often as the buffer fills.
func (w *Writer) raw(s string) {
	for len(s) > 0 {
		if len(w.buf) == cap(w.buf) {
			w.flush()
		}
		k := copy(w.buf[len(w.buf):cap(w.buf)], s)
		w.buf, s = w.buf[:len(w.buf)+k], s[k:]
	}
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) {
	w.room(1)
	w.buf = append(w.buf, v)
}

// U16 appends a uint16 as a varint.
func (w *Writer) U16(v uint16) { w.U64(uint64(v)) }

// U32 appends a uint32 as a varint.
func (w *Writer) U32(v uint32) { w.U64(uint64(v)) }

// U64 appends a uint64 as a minimal unsigned LEB128 varint: seven bits a
// byte, low bits first, the top bit set on every byte but the last.
func (w *Writer) U64(v uint64) {
	w.room(binary.MaxVarintLen64)
	w.buf = binary.AppendUvarint(w.buf, v)
}

// oneByte appends v if it is a one-byte varint and the buffer has room,
// and reports whether it did: the Codec's walkers write most of a
// snapshot this way, in line.
func (w *Writer) oneByte(v uint64) bool {
	if n := len(w.buf); v < 0x80 && n < cap(w.buf) {
		w.buf = w.buf[:n+1]
		w.buf[n] = byte(v)
		return true
	}
	return false
}

// I32 appends an int32 as a zigzag varint: 0, -1, 1, -2, ... travel as
// 0, 1, 2, 3, ..., so a small value of either sign costs a byte.
func (w *Writer) I32(v int32) { w.U64(zigzag(int64(v))) }

// I64 appends an int64 as a zigzag varint (see I32).
func (w *Writer) I64(v int64) { w.U64(zigzag(v)) }

// zigzag maps a signed value to an unsigned one with the sign in the low
// bit, so that small values of either sign are small; an int32's image
// fits 32 bits.
func zigzag(v int64) uint64 { return uint64(v<<1 ^ v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// F64 appends a float64 as its IEEE-754 bit pattern, fixed-width
// little-endian.
func (w *Writer) F64(v float64) {
	w.room(8)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// Bool appends a canonical 0/1 byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Str appends a varint length prefix followed by the string bytes.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.raw(s)
}

// Count appends a varint element count for a repeated group.
func (w *Writer) Count(n int) { w.U32(uint32(n)) }

// Section appends a 4-character ASCII section tag. Tags make snapshots
// self-describing: a reader that desynchronizes fails loudly at the next
// tag instead of silently misinterpreting bytes.
func (w *Writer) Section(label string) {
	if len(label) != 4 {
		panic(fmt.Sprintf("snapshot: section label %q is not 4 bytes", label))
	}
	w.raw(label)
}

// openSection starts a sized section: a u32 length, written as zero and
// patched by closeSection, and only on the bytes sink, to the number of
// bytes between the prefix and closeSection. The measure and hash sinks
// keep the zero, as they keep the header's total length, so a snapshot is
// still measured and digested in one pass. It returns where the prefix is.
func (w *Writer) openSection() int {
	at := w.size()
	w.room(4)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, 0)
	return at
}

// closeSection ends the sized section whose prefix openSection put at at.
func (w *Writer) closeSection(at int) {
	if w.patch {
		binary.LittleEndian.PutUint32(w.buf[at:], uint32(w.size()-at-4))
	}
}

// Finish ends a byte sink: it checks that the walk wrote the bytes it
// measured, patches the total-length header and returns the snapshot,
// whose length is its capacity. The Writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	n := len(w.buf)
	if size := cap(w.buf) - maxRoom; n != size {
		panic(fmt.Sprintf("snapshot: the walk wrote %d bytes, %d measured: an encoding walk must not change the state it walks", n, size))
	}
	binary.LittleEndian.PutUint64(w.buf[6:], uint64(n))
	return w.buf[:n:n]
}

// Reader decodes one snapshot. Errors are sticky: after the first
// failure every getter returns a zero value and Err reports the cause,
// so decode paths read straight through without per-call error checks
// and validate once at the end (or at natural section boundaries).
//
// A failure cuts buf short at the read offset, so every later read comes
// up short: the fixed-width getters check one length and nothing else,
// which keeps them small enough to inline into the walks. A short read
// records its width and offset in miss and leaves building the error to
// Err, so those getters call nothing out of line either. A varint is read
// in line when it is one byte (oneByte), and by one call otherwise.
type Reader struct {
	buf []byte // the input; cut to end at off by the first failure
	off int    // absolute: a section's reader shares the whole input's offsets
	err error  // the first failure, once built

	// miss is the first failure when it was a short read, until Err
	// builds it: the width read, its offset and the bytes that were left.
	miss struct{ need, at, left int }
}

// NewReader validates the header (magic, version, and that the recorded
// total length matches the input exactly — no trailing garbage, no
// truncation) and positions the reader after it.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("snapshot: %d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %#x (want %#x)", m, Magic)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (this build reads version %d)", v, Version)
	}
	if n := binary.LittleEndian.Uint64(data[6:]); n != uint64(len(data)) {
		return nil, fmt.Errorf("snapshot: header declares %d bytes, input has %d", n, len(data))
	}
	return &Reader{buf: data, off: headerSize}, nil
}

// Err returns the first decode error, or nil.
func (r *Reader) Err() error {
	if r.miss.need > 0 && r.err == nil {
		r.truncated()
	}
	return r.err
}

// truncated builds the error of the short read recorded in miss.
//
//go:noinline
func (r *Reader) truncated() {
	r.err = fmt.Errorf("snapshot: truncated: need %d bytes at offset %d, %d remain", r.miss.need, r.miss.at, r.miss.left)
}

// failed reports whether a read or a check has failed.
func (r *Reader) failed() bool { return r.err != nil || r.miss.need > 0 }

// Failf records a decode error (first one wins). State walks use it to
// report semantic validation failures — out-of-range indexes, mismatched
// structure — through the same sticky channel as codec-level failures.
func (r *Reader) Failf(format string, args ...any) {
	if !r.failed() {
		r.fail(fmt.Errorf("snapshot: "+format, args...))
	}
}

// fail records err as the first failure and cuts the input short, so
// that every later read fails. Every failure cuts it, so a reader that
// has failed has nothing left to read.
func (r *Reader) fail(err error) {
	r.err = err
	r.buf = r.buf[:r.off]
}

// short records a read of n bytes that found fewer, unless an earlier
// failure cut the input short, and cuts it short.
func (r *Reader) short(n int) {
	if !r.failed() {
		r.miss.need, r.miss.at, r.miss.left = n, r.off, len(r.buf)-r.off
		r.buf = r.buf[:r.off]
	}
}

// Remaining returns the number of unread bytes (0 after an error).
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if len(r.buf)-r.off < 1 {
		r.short(1)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// U16 reads a varint that must fit a uint16.
func (r *Reader) U16() uint16 { return uint16(r.varint(16)) }

// U32 reads a varint that must fit a uint32.
func (r *Reader) U32() uint32 { return uint32(r.varint(32)) }

// U64 reads a varint.
func (r *Reader) U64() uint64 { return r.varint(64) }

// varint reads a varint that must fit in bits bits, or fails: on a varint
// that runs past the end of the input, one with a redundant zero byte at
// its end (not minimal, so not canonical), and one whose value does not
// fit. Each error names the offset the varint starts at.
func (r *Reader) varint(bits int) uint64 {
	at := r.off
	if at < len(r.buf) && r.buf[at] < 0x80 { // one byte, most of a snapshot
		r.off++
		return uint64(r.buf[at])
	}
	// Two bytes, the next most: a second byte of 1 to 0x7F ends the varint
	// minimally, and 14 bits fit every type.
	if at+1 < len(r.buf) && r.buf[at+1]-1 < 0x7F {
		r.off += 2
		return uint64(r.buf[at]&0x7f) | uint64(r.buf[at+1])<<7
	}
	var v uint64
	for i, shift := at, 0; ; i, shift = i+1, shift+7 {
		if i == len(r.buf) {
			r.Failf("truncated: varint at offset %d runs past the end of the input (%d bytes left)", at, len(r.buf)-at)
			return 0
		}
		b := r.buf[i]
		if shift == 63 && b > 1 {
			r.Failf("varint at offset %d overflows 64 bits", at)
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b >= 0x80 {
			continue
		}
		switch {
		case b == 0 && i > at:
			r.Failf("non-minimal varint at offset %d: %d bytes for %d", at, i+1-at, v)
		case bits < 64 && v >= 1<<bits:
			r.Failf("varint %d at offset %d overflows %d bits", v, at, bits)
		default:
			r.off = i + 1
			return v
		}
		return 0
	}
}

// I32 reads a zigzag varint that must fit an int32 (see Writer.I32).
func (r *Reader) I32() int32 { return int32(unzigzag(r.varint(32))) }

// I64 reads a zigzag varint (see Writer.I32).
func (r *Reader) I64() int64 { return unzigzag(r.varint(64)) }

// oneByte reads a one-byte varint, if that is what comes next, and
// reports whether it did: the Codec's walkers read most of a snapshot
// this way, in line.
func (r *Reader) oneByte() (uint64, bool) {
	if i := r.off; i < len(r.buf) && r.buf[i] < 0x80 {
		r.off = i + 1
		return uint64(r.buf[i]), true
	}
	return 0, false
}

// F64 reads a float64 from its fixed-width IEEE-754 bit pattern.
func (r *Reader) F64() float64 {
	if len(r.buf)-r.off < 8 {
		r.short(8)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

// Bool reads a canonical 0/1 byte; any other value is an error (the
// encoding is canonical so round-trips are byte-identical).
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Failf("non-canonical bool byte %#x at offset %d", v, r.off-1)
		return false
	}
	return v == 1
}

// Str reads a length-prefixed string. The length is validated against
// the remaining input before any allocation.
func (r *Reader) Str() string {
	n := r.Count(1)
	if r.failed() {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Count reads a varint element count and validates it against the bytes
// remaining: each element occupies at least elemMin bytes (at least 1,
// which every element of a varint stream does), so a hostile count can
// never drive an allocation beyond one element per byte of the input.
func (r *Reader) Count(elemMin int) int {
	if elemMin < 1 {
		elemMin = 1
	}
	at := r.off
	n, ok := r.oneByte()
	if !ok {
		n = r.varint(32) // zero once the reader has failed
	}
	if int64(n)*int64(elemMin) > int64(len(r.buf)-r.off) {
		r.Failf("count %d at offset %d exceeds remaining input (%d bytes, >=%d each)",
			n, at, len(r.buf)-r.off, elemMin)
		return 0
	}
	return int(n)
}

// Section consumes a 4-character section tag and verifies it matches.
func (r *Reader) Section(label string) {
	if len(label) != 4 {
		panic(fmt.Sprintf("snapshot: section label %q is not 4 bytes", label))
	}
	if len(r.buf)-r.off < 4 {
		r.short(4)
		return
	}
	got := r.buf[r.off : r.off+4]
	r.off += 4
	if string(got) != label {
		r.Failf("section tag %q at offset %d, want %q", printableTag(got), r.off-4, label)
	}
}

// Close verifies the whole input was consumed; trailing bytes mean the
// decode path and the snapshot disagree about structure.
func (r *Reader) Close() error {
	if !r.failed() && r.off != len(r.buf) {
		r.Failf("%d trailing bytes at offset %d after decode", len(r.buf)-r.off, r.off)
	}
	return r.Err()
}

// printableTag renders a possibly-binary section tag for error messages.
func printableTag(b []byte) string {
	out := make([]byte, len(b))
	for i, c := range b {
		if c >= 0x20 && c < 0x7f {
			out[i] = c
		} else {
			out[i] = '.'
		}
	}
	return string(out)
}
