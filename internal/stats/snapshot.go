package stats

import "stashsim/internal/snapshot"

// State walks. Accumulators and histograms are captured exactly
// (histograms as sparse non-zero buckets over the fixed bucket array),
// so restored statistics continue bit-identically.

// State walks the accumulator.
func (a *Acc) State(c *snapshot.Codec) {
	c.I64(&a.N)
	c.F64(&a.Sum)
	c.F64(&a.Min)
	c.F64(&a.Max)
}

// State walks the histogram: the accumulator plus every non-zero bucket
// as (index, count) pairs in index order. Decoding zeroes the buckets the
// snapshot does not mention.
func (h *Hist) State(c *snapshot.Codec) {
	h.acc.State(c)
	live := 0
	for _, n := range h.buckets {
		if n != 0 {
			live++
		}
	}
	if c.Decoding() {
		h.buckets = [numBuckets]int64{}
	}
	i := -1
	for k := c.Count(live, 12); k > 0; k-- {
		if !c.Decoding() {
			for i++; h.buckets[i] == 0; i++ { // the next non-zero bucket
			}
		}
		snapshot.Wire32(c, &i)
		if c.Bound("Hist bucket index", i, 0, numBuckets); c.Err() != nil {
			return
		}
		c.I64(&h.buckets[i])
	}
}

// State walks the time series; decoding replaces the bins.
func (t *TimeSeries) State(c *snapshot.Codec) {
	c.I64(&t.BinWidth)
	if c.Decoding() && c.Err() == nil && t.BinWidth <= 0 {
		c.Failf("stats: non-positive time-series bin width %d", t.BinWidth)
	}
	snapshot.Slice(c, &t.bins, 32, func(a *Acc) { a.State(c) })
}
