package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
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
	hist    *[2]int64
}

func (s *walkState) state(c *Codec) {
	c.Section("TEST")
	c.I64(&s.created)
	Wire8(c, &s.col)
	c.Bound("walkState.col", int(s.col), -1, 4)
	Wire32(c, &s.next)
	Slice(c, &s.queue, 1, c.U16)
	Map(c, &s.sizes, 1+1, c.U64, c.U8)
	Map(c, &s.lazy, 1+1, c.U64, c.U8)
	if Opt(c, &s.hist) {
		c.I64(&s.hist[0])
		c.I64(&s.hist[1])
	}
}

func TestCodecWalkRoundTrip(t *testing.T) {
	src := &walkState{created: -7, col: -1, next: 3, queue: []uint16{9, 8},
		sizes: map[uint64]uint8{30: 3, 10: 1, 20: 2}, hist: &[2]int64{1, 2}}
	data := Encode(src.state)

	// The map travels in ascending key order whatever the iteration order.
	if string(Encode(src.state)) != string(data) {
		t.Fatal("two encodings of one state differ")
	}

	dst := &walkState{queue: []uint16{1, 2, 3}, sizes: map[uint64]uint8{99: 9}}
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
	if len(dst.queue) != 2 || dst.queue[1] != 8 {
		t.Errorf("sequence: queue %v", dst.queue)
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
	if string(Encode(dst.state)) != string(data) {
		t.Error("checkpoint -> restore -> checkpoint is not byte-identical")
	}
}

// decodeErr runs walk over the bytes build wrote and returns the error.
func decodeErr(t *testing.T, build func(w *Writer), walk func(c *Codec)) string {
	t.Helper()
	c, err := NewDecoder(write(build))
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
		{"len-mismatch", func(w *Writer) { w.Count(3); w.U32(1 << 28) },
			func(c *Codec) { c.Len("ports", 4, 1); var pad uint32; c.U32(&pad) }, "ports: this run has 4, snapshot has 3"},
		{"present-missing", func(w *Writer) { w.Bool(true) },
			func(c *Codec) { c.Present("a sampler", false) }, "the checkpointed run had a sampler, this run does not"},
		{"present-extra", func(w *Writer) { w.Bool(false) },
			func(c *Codec) { c.Present("a sampler", true) }, "this run has a sampler, the checkpointed run did not"},
		{"map-unsorted", func(w *Writer) { w.Count(2); w.U64(5); w.U8(1); w.U64(5); w.U8(2) },
			func(c *Codec) { var m map[uint64]uint8; Map(c, &m, 1+1, c.U64, c.U8) }, "map keys out of order"},
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
	Encode(func(enc *Codec) {
		enc.Bound("port", 9, 0, 4)
		enc.Failf("ignored")
		if enc.Err() != nil {
			t.Fatalf("encoding walk failed: %v", enc.Err())
		}
	})
}

// TestEncodeRefusesAMutatingWalk: Encode sizes the snapshot by a first
// pass, so a second pass that writes more or fewer bytes walked changed
// state; the byte sink panics instead of returning a wrong snapshot.
func TestEncodeRefusesAMutatingWalk(t *testing.T) {
	for _, tc := range []struct {
		name          string
		first, second int
	}{{"more", 2, 3}, {"fewer", 3, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "must not change the state it walks") {
					t.Fatalf("passes of %d and %d values: recovered %v", tc.first, tc.second, r)
				}
			}()
			n := tc.first
			Encode(func(c *Codec) {
				for i := range n {
					v := uint64(i)
					c.U64(&v)
				}
				n = tc.second
			})
		})
	}
}

// sectionFunc is a function as a SectionWalker.
type sectionFunc func(c *Codec, i int)

func (f sectionFunc) WalkSection(c *Codec, i int) { f(c, i) }

// inOrder runs every section in order; backwards in reverse, as a
// decoder that takes the sections in any order may.
func inOrder(n int, body func(i int)) {
	for i := range n {
		body(i)
	}
}

func backwards(n int, body func(i int)) {
	for i := n - 1; i >= 0; i-- {
		body(i)
	}
}

// sectioned walks three sized sections of different sizes, each its own
// walkState.
func sectioned(parts *[3]walkState) func(*Codec) {
	return func(c *Codec) {
		c.Sections("part", len(parts), backwards, sectionFunc(func(c *Codec, i int) { parts[i].state(c) }))
	}
}

// TestSectionsDecodeIndependently: each sized section decodes on a Codec
// of its own, in whatever order the runner takes them, and a snapshot that
// went through a restore checkpoints back to the same bytes.
func TestSectionsDecodeIndependently(t *testing.T) {
	src := [3]walkState{
		{created: 1, queue: []uint16{1}},
		{created: 2, sizes: map[uint64]uint8{4: 4, 2: 2}, queue: []uint16{7, 8, 9}},
		{created: 3, col: -1, hist: &[2]int64{5, 6}},
	}
	data := Encode(sectioned(&src))
	var dst [3]walkState
	dec, err := NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	if sectioned(&dst)(dec); dec.Close() != nil {
		t.Fatalf("decode: %v", dec.Err())
	}
	if dst[0].created != 1 || dst[1].sizes[4] != 4 || dst[1].queue[2] != 9 || dst[2].hist[1] != 6 {
		t.Fatalf("sections decoded to %+v", dst)
	}
	if again := Encode(sectioned(&dst)); string(again) != string(data) {
		t.Fatal("checkpoint -> restore -> checkpoint is not byte-identical")
	}

	// The first failure in section order is the one reported, whichever
	// section the runner decoded first.
	bad := []byte(string(data))
	at := headerSize + 1 // past the one-byte section count
	for range 2 {
		at += 4 + int(binary.LittleEndian.Uint32(bad[at:]))
	}
	bad[at+4] = 'X' // the third section's tag
	first := headerSize + 1 + 4
	bad[first] = 'X' // the first section's tag
	dec, _ = NewDecoder(bad)
	sectioned(&dst)(dec)
	if err := dec.Close(); err == nil || !strings.Contains(err.Error(), "in part 0's section") {
		t.Fatalf("want the first section's error, got %v", err)
	}
}

// TestHasherDigestsTheSnapshot: a Hasher's sum is the crc64-ECMA of the
// bytes Encode returns for the same walk, with the length header and the
// section lengths left unpatched, across many flushes of its buffer and
// from one walk to the next.
func TestHasherDigestsTheSnapshot(t *testing.T) {
	src := &walkState{created: 5, queue: []uint16{1, 2, 3}, sizes: map[uint64]uint8{7: 1, 3: 2}}
	long := strings.Repeat("stash", 3*scratchSize)
	const sections = 3
	walk := func(c *Codec) {
		c.Sections("part", sections, inOrder, sectionFunc(func(c *Codec, i int) {
			if i == 1 {
				c.Str(&long)
			}
			src.state(c)
		}))
		src.state(c)
		c.Str(&long)
	}
	data := Encode(walk)
	clear(data[6:headerSize])
	for at, i := headerSize+1, 0; i < sections; i++ {
		size := int(binary.LittleEndian.Uint32(data[at:]))
		clear(data[at : at+4])
		at += 4 + size
	}
	want := crc64.Checksum(data, crc64.MakeTable(crc64.ECMA))
	var h Hasher
	for i := range 2 {
		if got := h.Sum(walk); got != want {
			t.Fatalf("digest %d is %#x, the snapshot's crc64 %#x", i, got, want)
		}
	}
}
