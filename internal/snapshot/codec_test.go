package snapshot

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"stashsim/internal/proto"
)

// testFlit returns a representative valid flit for codec round trips.
func testFlit() proto.Flit {
	return proto.Flit{
		Src: 3, Dst: 7, MsgID: 42, PktID: proto.MakePktID(3, 9),
		Birth: 1234, Seq: 1, Size: 4, VC: 1, Out: 5, OrigOut: 5,
		Kind: proto.Data, Flags: proto.FlagTail, Class: proto.ClassDefault,
		Phase: proto.PhaseMinimal, Hops: 2, MidGroup: -1, Csum: 0xBEEF,
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Section("TEST")
	w.U8(0xAB)
	w.U16(0xCDEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0102030405060708)
	w.I32(-12345)
	w.I64(-1 << 60)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.Bool(true)
	w.Bool(false)
	w.Str("hello, snapshot")
	w.Str("")
	w.Count(3)
	f := testFlit()
	w.Flit(&f)
	data := w.Finish()

	if got := binary.LittleEndian.Uint64(data[6:]); got != uint64(len(data)) {
		t.Fatalf("Finish patched length %d, want %d", got, len(data))
	}

	rd, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	rd.Section("TEST")
	if v := rd.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := rd.U16(); v != 0xCDEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := rd.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := rd.U64(); v != 0x0102030405060708 {
		t.Errorf("U64 = %#x", v)
	}
	if v := rd.I32(); v != -12345 {
		t.Errorf("I32 = %d", v)
	}
	if v := rd.I64(); v != -1<<60 {
		t.Errorf("I64 = %d", v)
	}
	if v := rd.F64(); v != math.Pi {
		t.Errorf("F64 = %v", v)
	}
	if v := rd.F64(); !math.IsInf(v, -1) {
		t.Errorf("F64 inf = %v", v)
	}
	if !rd.Bool() || rd.Bool() {
		t.Error("Bool round trip failed")
	}
	if s := rd.Str(); s != "hello, snapshot" {
		t.Errorf("Str = %q", s)
	}
	if s := rd.Str(); s != "" {
		t.Errorf("empty Str = %q", s)
	}
	if n := rd.Count(1); n != 3 {
		t.Errorf("Count = %d", n)
	}
	if got := rd.Flit(); got != f {
		t.Errorf("Flit round trip: %+v != %+v", got, f)
	}
	if err := rd.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestReaderRejectsBadHeaders(t *testing.T) {
	valid := func() []byte {
		w := NewWriter()
		w.U64(7)
		return w.Finish()
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "shorter than"},
		{"short", valid()[:10], "shorter than"},
		{"bad-magic", func() []byte {
			d := append([]byte(nil), valid()...)
			d[0] ^= 0xFF
			return d
		}(), "bad magic"},
		{"version-skew", func() []byte {
			d := append([]byte(nil), valid()...)
			binary.LittleEndian.PutUint16(d[4:], Version+1)
			return d
		}(), "unsupported format version"},
		// Version 2 stopped walking the counts and masks beside the queues,
		// and no reader of version 1 was kept: a stream from before is
		// refused, not migrated.
		{"version-1", func() []byte {
			d := append([]byte(nil), valid()...)
			binary.LittleEndian.PutUint16(d[4:], 1)
			return d
		}(), "unsupported format version 1 (this build reads version 2)"},
		{"truncated-body", func() []byte {
			d := valid()
			return d[:len(d)-3]
		}(), "declares"},
		{"trailing-garbage", append(valid(), 0xFF), "declares"},
		{"hostile-length", func() []byte {
			d := append([]byte(nil), valid()...)
			binary.LittleEndian.PutUint64(d[6:], 1<<62)
			return d
		}(), "declares"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewReader(c.data)
			if err == nil {
				t.Fatal("NewReader accepted hostile input")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestReaderErrorsAreSticky(t *testing.T) {
	w := NewWriter()
	w.U32(5)
	data := w.Finish()
	rd, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	rd.U32()
	rd.U64() // truncated: only the header remains
	if rd.Err() == nil {
		t.Fatal("reading past the end did not error")
	}
	first := rd.Err()
	// Every later getter returns zero values and preserves the first error.
	if v := rd.U8(); v != 0 {
		t.Errorf("U8 after error = %d", v)
	}
	if v := rd.I64(); v != 0 {
		t.Errorf("I64 after error = %d", v)
	}
	if s := rd.Str(); s != "" {
		t.Errorf("Str after error = %q", s)
	}
	if n := rd.Count(1); n != 0 {
		t.Errorf("Count after error = %d", n)
	}
	if rd.Remaining() != 0 {
		t.Errorf("Remaining after error = %d", rd.Remaining())
	}
	rd.Failf("later failure")
	if rd.Err() != first {
		t.Errorf("first error was overwritten: %v", rd.Err())
	}
}

func TestCountGuardsOverAllocation(t *testing.T) {
	// A count claiming a billion 43-byte elements in a tiny input must be
	// rejected before any allocation sized from it.
	w := NewWriter()
	w.Count(1 << 30)
	data := w.Finish()
	rd, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if n := rd.Count(43); n != 0 {
		t.Fatalf("hostile count passed the guard: %d", n)
	}
	if rd.Err() == nil || !strings.Contains(rd.Err().Error(), "exceeds remaining") {
		t.Fatalf("want over-allocation error, got %v", rd.Err())
	}

	// Same for strings: the length prefix is validated against the input.
	w = NewWriter()
	w.U32(1 << 31)
	data = w.Finish()
	rd, _ = NewReader(data)
	if s := rd.Str(); s != "" || rd.Err() == nil {
		t.Fatalf("hostile string length accepted: %q, %v", s, rd.Err())
	}
}

func TestSectionMismatchAndBadBool(t *testing.T) {
	w := NewWriter()
	w.Section("AAAA")
	w.U8(7) // non-canonical bool
	data := w.Finish()

	rd, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	rd.Section("BBBB")
	if rd.Err() == nil || !strings.Contains(rd.Err().Error(), `"AAAA"`) {
		t.Fatalf("section mismatch error: %v", rd.Err())
	}

	rd, _ = NewReader(data)
	rd.Section("AAAA")
	rd.Bool()
	if rd.Err() == nil || !strings.Contains(rd.Err().Error(), "non-canonical bool") {
		t.Fatalf("bad bool error: %v", rd.Err())
	}
}

func TestCloseRejectsTrailingBytes(t *testing.T) {
	w := NewWriter()
	w.U32(1)
	w.U32(2)
	data := w.Finish()
	rd, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	rd.U32()
	if err := rd.Close(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("Close accepted trailing bytes: %v", err)
	}
}

func TestFlitDecodeValidates(t *testing.T) {
	// A flit slot filled with 0xFF must fail the proto codec's range
	// validation, not produce a garbage flit.
	w := NewWriter()
	for i := 0; i < proto.FlitWireSize; i++ {
		w.U8(0xFF)
	}
	data := w.Finish()
	rd, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	rd.Flit()
	if rd.Err() == nil {
		t.Fatal("hostile flit bytes decoded without error")
	}
}
