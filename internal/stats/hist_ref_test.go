package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"stashsim/internal/snapshot"
)

// refHist is the dense form Hist had before its buckets were paged: one
// flat array, every walk over all of it. FuzzHist diffs the two.
type refHist struct {
	buckets [numBuckets]int64
	acc     Acc
}

func (h *refHist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)]++
	h.acc.Add(float64(v))
}

func (h *refHist) Merge(o *refHist) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.acc.Merge(o.acc)
}

func (h *refHist) Percentile(p float64) int64 {
	if h.acc.N == 0 {
		return 0
	}
	target := int64(math.Ceil(p / 100 * float64(h.acc.N)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := 0; i < numBuckets; i++ {
		seen += h.buckets[i]
		if seen >= target {
			return bucketLow(i)
		}
	}
	return int64(h.acc.Max)
}

func (h *refHist) InverseCDF() []InverseCDFPoint {
	if h.acc.N == 0 {
		return nil
	}
	var out []InverseCDFPoint
	remaining := h.acc.N
	for i := 0; i < numBuckets; i++ {
		if h.buckets[i] == 0 {
			continue
		}
		remaining -= h.buckets[i]
		out = append(out, InverseCDFPoint{Value: bucketLow(i), Fraction: float64(remaining) / float64(h.acc.N)})
	}
	return out
}

// state is the dense walk's encoding half: the accumulator, then every
// non-zero bucket as (index, count) in index order.
func (h *refHist) state(c *snapshot.Codec) {
	h.acc.State(c)
	live := 0
	for _, n := range h.buckets {
		if n != 0 {
			live++
		}
	}
	c.Count(live, 12)
	for i, n := range h.buckets {
		if n != 0 {
			snapshot.Wire32(c, &i)
			c.I64(&n)
		}
	}
}

func encode(walk func(*snapshot.Codec)) []byte {
	c := snapshot.NewEncoder()
	walk(c)
	return c.Finish()
}

func decodeHist(data []byte) (*Hist, error) {
	c, err := snapshot.NewDecoder(data)
	if err != nil {
		return nil, err
	}
	h := &Hist{}
	h.State(c)
	return h, c.Close()
}

var fuzzPercentiles = []float64{0.001, 1, 10, 25, 50, 75, 90, 99, 99.9, 100}

// FuzzHist drives a paged and a dense histogram pair through the same
// Adds and Merges and requires every query and the checkpoint bytes to
// agree, and those bytes to restore into a paged histogram that writes
// them back unchanged. Each three input bytes are one Add: the first picks
// the histogram (a or b), the sign, a merge of b into a, and the shift
// that spreads the 16-bit value over the octaves.
func FuzzHist(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0, 1, 200, 0, 0x81, 0xff, 0xff})
	f.Add([]byte{0xf8, 0xff, 0xff, 0x03, 1, 0, 0x07, 9, 9, 0xfa, 0x10, 0x27})
	f.Fuzz(func(t *testing.T, data []byte) {
		var a, b Hist
		var ra, rb refHist
		for i := 0; i+3 <= len(data); i += 3 {
			op := data[i]
			v := int64(binary.LittleEndian.Uint16(data[i+1:])) << (op >> 3)
			if op&4 != 0 {
				v = -v
			}
			if op&1 == 0 {
				a.Add(v)
				ra.Add(v)
			} else {
				b.Add(v)
				rb.Add(v)
			}
			if op&2 != 0 {
				a.Merge(&b)
				ra.Merge(&rb)
			}
		}
		a.Merge(&b)
		ra.Merge(&rb)
		for _, h := range []struct {
			paged *Hist
			ref   *refHist
		}{{&a, &ra}, {&b, &rb}} {
			if h.paged.N() != h.ref.acc.N || h.paged.Mean() != h.ref.acc.Mean() ||
				h.paged.Min() != h.ref.acc.Min || h.paged.Max() != h.ref.acc.Max {
				t.Fatalf("accumulator %+v, reference %+v", h.paged.acc, h.ref.acc)
			}
			for _, p := range fuzzPercentiles {
				if got, want := h.paged.Percentile(p), h.ref.Percentile(p); got != want {
					t.Fatalf("Percentile(%v) = %d, reference %d", p, got, want)
				}
			}
			if got, want := h.paged.InverseCDF(), h.ref.InverseCDF(); !slices.Equal(got, want) {
				t.Fatalf("InverseCDF %v, reference %v", got, want)
			}
			got, want := encode(h.paged.State), encode(h.ref.state)
			if !bytes.Equal(got, want) {
				t.Fatalf("State bytes differ from the reference's (%d vs %d bytes)", len(got), len(want))
			}
			back, err := decodeHist(got)
			if err != nil {
				t.Fatalf("decoding its own bytes: %v", err)
			}
			if again := encode(back.State); !bytes.Equal(again, got) {
				t.Fatal("a restored histogram writes different bytes")
			}
		}
	})
}

// TestHistPagesOnlyWhatItHolds checks the point of the pages: observations
// within one octave allocate one page, and an empty histogram none.
func TestHistPagesOnlyWhatItHolds(t *testing.T) {
	pages := func(h *Hist) int {
		n := 0
		for _, p := range h.pages {
			if p != nil {
				n++
			}
		}
		return n
	}
	var h Hist
	if pages(&h) != 0 {
		t.Fatal("empty histogram holds pages")
	}
	for v := int64(512); v < 1024; v += 3 {
		h.Add(v)
	}
	if n := pages(&h); n != 1 {
		t.Fatalf("one octave of observations holds %d pages, want 1", n)
	}
	var sum Hist
	sum.Merge(&h)
	if n := pages(&sum); n != 1 {
		t.Fatalf("merging one page made %d", n)
	}
}

// malformedHist encodes a histogram whose accumulator says n observations
// and whose buckets are the given (index, count) pairs, as a hostile
// snapshot could.
func malformedHist(n int64, pairs ...[2]int64) []byte {
	return encode(func(c *snapshot.Codec) {
		acc := Acc{N: n, Sum: 1, Min: 1, Max: 1}
		acc.State(c)
		c.Count(len(pairs), 12)
		for _, p := range pairs {
			i, cnt := int(p[0]), p[1]
			snapshot.Wire32(c, &i)
			c.I64(&cnt)
		}
	})
}

// TestHistDecodeRefusesWhatAddCannotBuild: each of these decoded without
// error when the decoder only range-checked the index, and left a
// histogram whose percentiles disagree with its N.
func TestHistDecodeRefusesWhatAddCannotBuild(t *testing.T) {
	cases := []struct {
		name  string
		data  []byte
		field string
	}{
		{"repeated index", malformedHist(2, [2]int64{5, 1}, [2]int64{5, 1}), "Hist bucket index"},
		{"descending index", malformedHist(2, [2]int64{9, 1}, [2]int64{5, 1}), "Hist bucket index"},
		{"index past the buckets", malformedHist(1, [2]int64{numBuckets, 1}), "Hist bucket index"},
		{"zero count", malformedHist(1, [2]int64{5, 0}, [2]int64{6, 1}), "Hist bucket count"},
		{"negative count", malformedHist(1, [2]int64{5, -1}, [2]int64{6, 2}), "Hist bucket count"},
		{"counts past N", malformedHist(2, [2]int64{5, 2}, [2]int64{6, 1}), "Hist bucket count"},
		{"counts short of N", malformedHist(3, [2]int64{5, 1}, [2]int64{6, 1}), "Hist bucket sum"},
		{"N negative", malformedHist(-1), "Hist bucket sum"},
	}
	for _, tc := range cases {
		_, err := decodeHist(tc.data)
		if err == nil || !strings.Contains(err.Error(), "snapshot: "+tc.field+" = ") {
			t.Errorf("%s: decode error %v, want one naming %s", tc.name, err, tc.field)
		}
	}
	good := malformedHist(3, [2]int64{5, 1}, [2]int64{40, 2})
	h, err := decodeHist(good)
	if err != nil {
		t.Fatalf("a well-formed histogram: %v", err)
	}
	if p := h.Percentile(99); p != bucketLow(40) {
		t.Fatalf("restored Percentile(99) = %d, want %d", p, bucketLow(40))
	}
}
