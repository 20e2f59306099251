package snapshot

import (
	"strings"
	"testing"
)

// walkState is a miniature stateful type exercising every walker shape.
type walkState struct {
	created int64
	col     int8
	next    int
	queue   []uint16
	sizes   map[uint64]uint8
	lazy    map[uint64]uint8
	ring    fifo
	hist    *[2]int64
}

// fifo is the smallest FIFO: a slice.
type fifo []int64

func (f *fifo) Len() int        { return len(*f) }
func (f *fifo) At(i int) *int64 { return &(*f)[i] }
func (f *fifo) Push(v int64)    { *f = append(*f, v) }
func (f *fifo) Reset()          { *f = nil }
func (f *fifo) Grow(n int)      { *f = append(make(fifo, 0, len(*f)+n), *f...) }

func (s *walkState) state(c *Codec) {
	c.Section("TEST")
	c.I64(&s.created)
	Wire8(c, &s.col)
	c.Bound("walkState.col", int(s.col), -1, 4)
	Wire32(c, &s.next)
	Slice(c, &s.queue, 2, c.U16)
	Map(c, &s.sizes, 9, c.U64, c.U8)
	Map(c, &s.lazy, 9, c.U64, c.U8)
	Ring(c, &s.ring, 8, c.I64)
	if Opt(c, &s.hist) {
		c.I64(&s.hist[0])
		c.I64(&s.hist[1])
	}
}

func TestCodecWalkRoundTrip(t *testing.T) {
	src := &walkState{created: -7, col: -1, next: 3, queue: []uint16{9, 8},
		sizes: map[uint64]uint8{30: 3, 10: 1, 20: 2}, ring: fifo{5, 6, 7}, hist: &[2]int64{1, 2}}
	enc := NewEncoder()
	src.state(enc)
	data := enc.Finish()

	// The map travels in ascending key order whatever the iteration order.
	again := NewEncoder()
	src.state(again)
	if string(again.Finish()) != string(data) {
		t.Fatal("two encodings of one state differ")
	}

	dst := &walkState{queue: []uint16{1, 2, 3}, sizes: map[uint64]uint8{99: 9}, ring: fifo{4}}
	dec, err := NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	dst.state(dec)
	if err := dec.Close(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dst.created != -7 || dst.col != -1 || dst.next != 3 {
		t.Errorf("scalars: %+v", dst)
	}
	if len(dst.queue) != 2 || dst.queue[1] != 8 || len(dst.ring) != 3 || dst.ring[2] != 7 {
		t.Errorf("sequences: queue %v ring %v", dst.queue, dst.ring)
	}
	if len(dst.sizes) != 3 || dst.sizes[20] != 2 || dst.sizes[99] != 0 {
		t.Errorf("map: %v", dst.sizes)
	}
	if dst.lazy != nil {
		t.Error("an empty map was allocated; lazily-built maps must stay nil")
	}
	if dst.hist == nil || dst.hist[1] != 2 {
		t.Errorf("optional sink: %v", dst.hist)
	}
	re := NewEncoder()
	dst.state(re)
	if string(re.Finish()) != string(data) {
		t.Error("checkpoint -> restore -> checkpoint is not byte-identical")
	}
}

// decodeErr runs walk over the bytes build wrote and returns the error.
func decodeErr(t *testing.T, build func(w *Writer), walk func(c *Codec)) string {
	t.Helper()
	w := NewWriter()
	build(w)
	c, err := NewDecoder(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	walk(c)
	if err := c.Close(); err != nil {
		return err.Error()
	}
	return ""
}

func TestCodecValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func(w *Writer)
		walk  func(c *Codec)
		want  string
	}{
		{"bound-high", func(w *Writer) { w.U8(4) },
			func(c *Codec) { var v uint8; c.U8(&v); c.Bound("port", int(v), 0, 4) }, "port = 4 out of range [0,4)"},
		{"bound-low", func(w *Writer) { w.U8(0xFE) },
			func(c *Codec) { var v int8; Wire8(c, &v); c.Bound("col", int(v), -1, 4) }, "col = -2 out of range [-1,4)"},
		{"len-mismatch", func(w *Writer) { w.Count(3); w.U32(0) },
			func(c *Codec) { c.Len("ports", 4, 1); var pad uint32; c.U32(&pad) }, "ports: this run has 4, snapshot has 3"},
		{"present-missing", func(w *Writer) { w.Bool(true) },
			func(c *Codec) { c.Present("a sampler", false) }, "the checkpointed run had a sampler, this run does not"},
		{"present-extra", func(w *Writer) { w.Bool(false) },
			func(c *Codec) { c.Present("a sampler", true) }, "this run has a sampler, the checkpointed run did not"},
		{"map-unsorted", func(w *Writer) { w.Count(2); w.U64(5); w.U8(1); w.U64(5); w.U8(2) },
			func(c *Codec) { var m map[uint64]uint8; Map(c, &m, 9, c.U64, c.U8) }, "map keys out of order"},
		{"slice-count", func(w *Writer) { w.Count(1 << 20) },
			func(c *Codec) { var s []uint64; Slice(c, &s, 8, c.U64) }, "exceeds remaining input"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := decodeErr(t, tc.build, tc.walk); !strings.Contains(got, tc.want) {
				t.Fatalf("error %q does not mention %q", got, tc.want)
			}
		})
	}
	// Validation is decode-only: an encoding walk never fails.
	enc := NewEncoder()
	enc.Bound("port", 9, 0, 4)
	enc.Failf("ignored")
	if enc.Err() != nil {
		t.Fatalf("encoding walk failed: %v", enc.Err())
	}
}
