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
// byte length including the header (u64) — followed by tagged sections.
// Integers are fixed-width little-endian; floats are IEEE-754 bit
// patterns; booleans are canonical 0/1 bytes; strings and repeated
// groups are length-prefixed with u32 counts validated against the
// bytes remaining, so a hostile count can never force an allocation
// larger than the input itself.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"

	"stashsim/internal/proto"
)

const (
	// Magic identifies a stashsim snapshot ("STAS", little-endian).
	Magic uint32 = 0x53544153
	// Version is the current snapshot format version. Readers reject any
	// other version: the format describes unexported simulator state, so
	// cross-version compatibility is out of scope by design. Version 2 walks
	// the queues alone, not the counts and masks kept beside them.
	Version uint16 = 2
	// headerSize is magic + version + total length.
	headerSize = 4 + 2 + 8
)

// Writer builds one snapshot. Use NewWriter, append with the typed
// methods, and call Finish to patch the length header and obtain the
// bytes. The zero value is not usable.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the header fields pre-written (the
// total length is patched by Finish).
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 1<<16)}
	w.U32(Magic)
	w.U16(Version)
	w.U64(0) // total length, patched by Finish
	return w
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I32 appends an int32 as its two's-complement bits.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 appends an int64 as its two's-complement bits.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a canonical 0/1 byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Str appends a u32 length prefix followed by the string bytes.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Count appends a u32 element count for a repeated group.
func (w *Writer) Count(n int) { w.U32(uint32(n)) }

// Section appends a 4-character ASCII section tag. Tags make snapshots
// self-describing: a reader that desynchronizes fails loudly at the next
// tag instead of silently misinterpreting bytes.
func (w *Writer) Section(label string) {
	if len(label) != 4 {
		panic(fmt.Sprintf("snapshot: section label %q is not 4 bytes", label))
	}
	w.buf = append(w.buf, label...)
}

// Flit appends one flit in the canonical proto wire encoding.
func (w *Writer) Flit(f *proto.Flit) {
	w.buf = proto.AppendFlit(w.buf, f)
}

// Finish patches the total-length header and returns the snapshot bytes.
// The Writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	binary.LittleEndian.PutUint64(w.buf[6:], uint64(len(w.buf)))
	return w.buf
}

// Reader decodes one snapshot. Errors are sticky: after the first
// failure every getter returns a zero value and Err reports the cause,
// so decode paths read straight through without per-call error checks
// and validate once at the end (or at natural section boundaries).
type Reader struct {
	buf []byte
	off int
	err error
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
func (r *Reader) Err() error { return r.err }

// Failf records a decode error (first one wins). State walks use it to
// report semantic validation failures — out-of-range indexes, mismatched
// structure — through the same sticky channel as codec-level failures.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

// Remaining returns the number of unread bytes (0 after an error).
func (r *Reader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.buf) - r.off
}

// need reserves n bytes, recording an error when fewer remain.
func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if len(r.buf)-r.off < n {
		r.Failf("truncated: need %d bytes at offset %d, %d remain", n, r.off, len(r.buf)-r.off)
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// I32 reads an int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 from its IEEE-754 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

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
	if r.err != nil || !r.need(n) {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Count reads a u32 element count and validates it against the bytes
// remaining: each element occupies at least elemMin bytes (use 1 for
// variable-size elements), so a hostile count can never drive an
// allocation beyond the input size.
func (r *Reader) Count(elemMin int) int {
	if elemMin < 1 {
		elemMin = 1
	}
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(elemMin) > int64(len(r.buf)-r.off) {
		r.Failf("count %d at offset %d exceeds remaining input (%d bytes, >=%d each)",
			n, r.off-4, len(r.buf)-r.off, elemMin)
		return 0
	}
	return int(n)
}

// Section consumes a 4-character section tag and verifies it matches.
func (r *Reader) Section(label string) {
	if len(label) != 4 {
		panic(fmt.Sprintf("snapshot: section label %q is not 4 bytes", label))
	}
	if !r.need(4) {
		return
	}
	got := r.buf[r.off : r.off+4]
	r.off += 4
	if string(got) != label {
		r.Failf("section tag %q at offset %d, want %q", printableTag(got), r.off-4, label)
	}
}

// Flit reads one flit in the canonical proto wire encoding, with the
// proto codec's full range validation.
func (r *Reader) Flit() proto.Flit {
	if r.err != nil {
		return proto.Flit{}
	}
	f, n, err := proto.DecodeFlit(r.buf[r.off:])
	if err != nil {
		r.Failf("flit at offset %d: %v", r.off, err)
		return proto.Flit{}
	}
	r.off += n
	return f
}

// Close verifies the whole input was consumed; trailing bytes mean the
// decode path and the snapshot disagree about structure.
func (r *Reader) Close() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Failf("%d trailing bytes after decode", len(r.buf)-r.off)
	}
	return r.err
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
