package snapshot

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"stashsim/internal/proto"
)

// The kinds of value FuzzWireValues writes and reads.
const (
	kindU8 = iota
	kindU16
	kindU32
	kindU64
	kindI32
	kindI64
	kindF64
	kindBool
	kindStr
	kindCount // also starts a new queue of flits
	kindFlit
	numKinds
)

// wireValue is one typed value of the byte layer.
type wireValue struct {
	kind int
	u    uint64 // every kind but Str and Flit, as its bits
	s    string
	f    proto.Flit
}

// put writes v; a flit goes to queue q.
func (v *wireValue) put(w *Writer, q *FlitQueue) {
	switch v.kind {
	case kindU8:
		w.U8(uint8(v.u))
	case kindU16:
		w.U16(uint16(v.u))
	case kindU32:
		w.U32(uint32(v.u))
	case kindU64:
		w.U64(v.u)
	case kindI32:
		w.I32(int32(v.u))
	case kindI64:
		w.I64(int64(v.u))
	case kindF64:
		w.F64(math.Float64frombits(v.u))
	case kindBool:
		w.Bool(v.u != 0)
	case kindStr:
		w.Str(v.s)
	case kindCount:
		w.Count(int(uint32(v.u)))
		*q = FlitQueue{}
	case kindFlit:
		w.Flit(&v.f, q)
	}
}

// get reads a value of kind k; a flit comes from queue q.
func get(r *Reader, k int, q *FlitQueue) wireValue {
	v := wireValue{kind: k}
	switch k {
	case kindU8:
		v.u = uint64(r.U8())
	case kindU16:
		v.u = uint64(r.U16())
	case kindU32:
		v.u = uint64(r.U32())
	case kindU64:
		v.u = r.U64()
	case kindI32:
		v.u = uint64(uint32(r.I32()))
	case kindI64:
		v.u = uint64(r.I64())
	case kindF64:
		v.u = math.Float64bits(r.F64())
	case kindBool:
		if r.Bool() {
			v.u = 1
		}
	case kindStr:
		v.s = r.Str()
	case kindCount:
		v.u = uint64(r.Count(1))
		*q = FlitQueue{}
	case kindFlit:
		r.Flit(&v.f, q)
	}
	return v
}

// valuesFrom reads a sequence of values out of data, eight bytes a value
// at most: a kind byte, then the bytes of the value. Flits are valid ones,
// and most continue the flit before them, so that the sequence takes the
// flit encoding's short paths as well as its long ones.
func valuesFrom(data []byte) []wireValue {
	var vals []wireValue
	var prev proto.Flit
	follows := false
	for len(data) > 0 {
		k := int(data[0]) % numKinds
		var b [8]byte
		data = data[1+copy(b[:], data[1:]):]
		u := binary.LittleEndian.Uint64(b[:])
		v := wireValue{kind: k}
		switch k {
		case kindU8:
			v.u = u & 0xFF
		case kindU16:
			v.u = u & 0xFFFF
		case kindU32, kindI32:
			v.u = u & 0xFFFFFFFF
		case kindU64, kindI64, kindF64:
			v.u = u
		case kindBool:
			v.u = u & 1
		case kindCount:
			v.u = u % 8 // cut to the values that follow it below
			follows = false
		case kindStr:
			v.s = string(b[:u%9])
		case kindFlit:
			v.f = flitFrom(b, prev, follows)
			prev, follows = v.f, true
		}
		vals = append(vals, v)
	}
	// A count is read against the bytes after it, at one byte an element.
	for i := range vals {
		if vals[i].kind == kindCount {
			vals[i].u = min(vals[i].u, uint64(len(vals)-1-i))
		}
	}
	return vals
}

// flitFrom builds a valid flit out of b: the next flit of prev's packet
// when b says so and prev follows, or a flit of a new packet.
func flitFrom(b [8]byte, prev proto.Flit, follows bool) proto.Flit {
	if follows && b[0]&3 != 0 && prev.Seq+1 < prev.Size {
		f := prev
		f.Seq++
		f.Flags = proto.Flags(b[1]) &^ proto.FlagHead
		f.Csum = csumFrom(b[0]>>2, &f)
		if b[0]&8 != 0 {
			f.VC = b[2] % proto.NumVCs
		}
		return f
	}
	size := b[0]%proto.MaxPacketFlits + 1
	f := proto.Flit{
		Src: int32(b[1]) - 1, Dst: int32(b[2]) << 20, MsgID: uint32(b[3]) << 9, PktID: binary.LittleEndian.Uint64(b[:]),
		Birth: int64(int8(b[4])) << 30, Size: size, Seq: b[5] % size, VC: b[6] % proto.NumVCs, RestoreVC: b[7] % proto.NumVCs,
		Out: b[1], OrigOut: b[2], Kind: proto.Kind(b[3] & 1), Flags: proto.Flags(b[4]), Class: proto.Class(b[5] % uint8(proto.NumClasses)),
		Phase: proto.RoutePhase(b[6] % 3), Hops: b[7], MidGroup: int16(b[3]) - 1,
	}
	f.Csum = csumFrom(b[6], &f)
	return f
}

// csumFrom is the checksum of a flit in one of the three regimes: none, a
// verified one, a corrupted one.
func csumFrom(b byte, f *proto.Flit) uint16 {
	switch b % 3 {
	case 1:
		return proto.FlitSum(f)
	case 2:
		return proto.FlitSum(f) ^ 0x5555
	}
	return 0
}

// FuzzWireValues: a sequence of typed values written by Writer reads back
// equal through Reader, and arbitrary bytes read as a sequence of typed
// values never panic and never decode but canonically — every value
// read re-encodes to exactly the bytes it was read from, so no varint
// read was longer than its minimal form and no flit wrote a field its
// prediction gives.
func FuzzWireValues(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{kindU64, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, kindI64, 0x80, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{kindCount, 3, kindFlit, 5, 1, 2, 3, 4, 5, 6, 7, kindFlit, 1, 0, kindFlit, 1, 0, kindFlit, 0})
	f.Add([]byte{kindStr, 4, 'S', 'T', 'A', 'S', kindBool, 1, kindF64, 1, 2, 3})
	// Read raw, where the first byte names the kind of the first value and
	// is its first byte too: a U32 of 6 in two bytes, a U16 past 16 bits,
	// and a flit of a new packet (tag 0x15, a Src of 10 naming the next
	// value a flit) followed by one whose tag writes the VC and RestoreVC
	// it inherits.
	f.Add([]byte{0x80 + 6, 0x00})
	f.Add([]byte{0x80 + 5, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{0x15, 10, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0x08, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := valuesFrom(data)
		snap := write(func(w *Writer) {
			var q FlitQueue
			for i := range vals {
				vals[i].put(w, &q)
			}
		})
		r, err := NewReader(snap)
		if err != nil {
			t.Fatal(err)
		}
		var q FlitQueue
		for i, want := range vals {
			if got := get(r, want.kind, &q); got != want {
				t.Fatalf("value %d of kind %d: wrote %+v, read %+v (%v)", i, want.kind, want, got, r.Err())
			}
		}
		if err := r.Close(); err != nil {
			t.Fatalf("reading back what was written: %v", err)
		}

		// The same bytes as a snapshot's body, read as values of the kinds
		// they name in turn.
		raw := binary.LittleEndian.AppendUint32(nil, Magic)
		raw = binary.LittleEndian.AppendUint16(raw, Version)
		raw = binary.LittleEndian.AppendUint64(raw, uint64(headerSize+len(data)))
		r, err = NewReader(append(raw, data...))
		if err != nil {
			t.Fatal(err)
		}
		var rq, wq FlitQueue
		for i := 0; r.Remaining() > 0; i++ {
			at := r.off
			v := get(r, int(data[i%len(data)])%numKinds, &rq)
			if r.Err() != nil {
				break
			}
			before := wq // write runs its fill twice, to measure and to write
			again := write(func(w *Writer) { wq = before; v.put(w, &wq) })[headerSize:]
			if read := data[at-headerSize : r.off-headerSize]; !bytes.Equal(read, again) {
				t.Fatalf("value %d of kind %d read from % x encodes as % x", i, v.kind, read, again)
			}
		}
	})
}
