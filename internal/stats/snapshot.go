package stats

import (
	"math"

	"stashsim/internal/snapshot"
)

// State walks. Accumulators and histograms are captured exactly
// (histograms as sparse non-zero buckets over the fixed bucket array),
// so restored statistics continue bit-identically.

// State walks the accumulator: its count, and its sum and extremes only
// when it has observed something. Decoding an empty one restores a fresh
// accumulator's zeros, which are what an empty live one holds.
func (a *Acc) State(c *snapshot.Codec) {
	if c.I64(&a.N); a.N == 0 {
		if c.Decoding() {
			*a = Acc{}
		}
		return
	}
	c.F64(&a.Sum)
	c.F64(&a.Min)
	c.F64(&a.Max)
}

// State walks the histogram: the accumulator plus every non-zero bucket
// as (index, count) pairs in index order; the pages a bucket lives in are
// not state. Decoding drops the pages the snapshot does not fill, and
// refuses what Add and Merge cannot build: an index that does not ascend
// strictly (a repeat would fold two buckets into one), a count below one,
// and counts that do not sum to the accumulator's N (Percentile would
// fall through to Max).
func (h *Hist) State(c *snapshot.Codec) {
	h.acc.State(c)
	live := 0
	for i := h.nextLive(-1); i < numBuckets; i = h.nextLive(i) {
		live++
	}
	if c.Decoding() {
		h.pages = [numPages]*page{}
	}
	i := -1
	rest := h.acc.N // observations the buckets still have to hold
	for k := c.Count(live, 1+1); k > 0; k-- {
		prev := i
		if !c.Decoding() {
			i = h.nextLive(i)
		}
		snapshot.Wire32(c, &i)
		if c.Bound("Hist bucket index", i, prev+1, numBuckets); c.Err() != nil {
			return
		}
		n := h.count(i)
		c.I64(&n)
		if c.Bound("Hist bucket count", int(n), 1, int(min(rest, math.MaxInt64-1))+1); c.Err() != nil {
			return
		}
		rest -= n
		if c.Decoding() {
			*h.bucket(i) = n
		}
	}
	if rest != 0 {
		c.Failf("Hist bucket sum = %d, but the histogram's N = %d", h.acc.N-rest, h.acc.N)
	}
}

// State walks the time series; decoding replaces the bins.
func (t *TimeSeries) State(c *snapshot.Codec) {
	c.I64(&t.BinWidth)
	if c.Decoding() && c.Err() == nil && t.BinWidth <= 0 {
		c.Failf("stats: non-positive time-series bin width %d", t.BinWidth)
	}
	snapshot.Slice(c, &t.bins, 1+3*8, func(a *Acc) { a.State(c) })
}
