// Package stats provides the measurement machinery used by the experiment
// harness: streaming accumulators, HDR-style log-bucketed latency
// histograms with percentile and inverse-CDF queries, fixed-bin time
// series, and gauge samplers for buffer-occupancy probes.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Acc is a streaming accumulator of a scalar quantity.
type Acc struct {
	N        int64
	Sum      float64
	Min, Max float64
}

// Add records one observation.
func (a *Acc) Add(x float64) {
	if a.N == 0 || x < a.Min {
		a.Min = x
	}
	if a.N == 0 || x > a.Max {
		a.Max = x
	}
	a.N++
	a.Sum += x
}

// Mean returns the running mean, or 0 when empty.
func (a *Acc) Mean() float64 {
	if a.N == 0 {
		return 0
	}
	return a.Sum / float64(a.N)
}

// Merge folds another accumulator into a.
func (a *Acc) Merge(b Acc) {
	if b.N == 0 {
		return
	}
	if a.N == 0 {
		*a = b
		return
	}
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
	a.N += b.N
	a.Sum += b.Sum
}

// subBucketBits controls histogram resolution: each power-of-two range is
// split into 2^subBucketBits linear sub-buckets, bounding relative
// quantization error to ~1/2^subBucketBits.
const subBucketBits = 5

const numBuckets = 64 * (1 << subBucketBits)

// The buckets live in pages of pageSize, allocated on the first
// observation that lands in one. A page is one power-of-two range of
// values (page 0 holds the exact values below 2^subBucketBits), so a
// latency distribution spanning a few octaves holds a few pages, not the
// whole 16 KB bucket array: a paper-scale network keeps one histogram per
// endpoint shard.
const (
	pageSize = 1 << subBucketBits
	numPages = numBuckets / pageSize
)

type page [pageSize]int64

// Hist is an HDR-style histogram of non-negative integer observations
// (latencies in cycles). Its memory grows with the octaves observed, up
// to a fixed bound; relative error is ~3%.
type Hist struct {
	pages [numPages]*page
	acc   Acc
}

// count returns bucket i's count.
func (h *Hist) count(i int) int64 {
	if p := h.pages[i/pageSize]; p != nil {
		return p[i%pageSize]
	}
	return 0
}

// bucket returns bucket i, allocating its page.
func (h *Hist) bucket(i int) *int64 {
	p := h.pages[i/pageSize]
	if p == nil {
		p = new(page)
		h.pages[i/pageSize] = p
	}
	return &p[i%pageSize]
}

// nextLive returns the index of the first non-zero bucket after i, or
// numBuckets when there is none; it skips absent pages whole.
func (h *Hist) nextLive(i int) int {
	for i++; i < numBuckets; i++ {
		p := h.pages[i/pageSize]
		if p == nil {
			i += pageSize - 1 - i%pageSize
			continue
		}
		if p[i%pageSize] != 0 {
			return i
		}
	}
	return numBuckets
}

func bucketOf(v int64) int {
	if v < 1<<subBucketBits {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	sub := int(v>>(uint(exp)-subBucketBits)) & (1<<subBucketBits - 1)
	return (exp-subBucketBits+1)<<subBucketBits + sub
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) int64 {
	if i < 1<<subBucketBits {
		return int64(i)
	}
	exp := i>>subBucketBits + subBucketBits - 1
	sub := int64(i & (1<<subBucketBits - 1))
	return 1<<uint(exp) + sub<<(uint(exp)-subBucketBits)
}

// Add records one observation; negative values are clamped to zero.
func (h *Hist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	*h.bucket(bucketOf(v))++
	h.acc.Add(float64(v))
}

// N returns the number of observations.
func (h *Hist) N() int64 { return h.acc.N }

// Mean returns the exact mean of all observations.
func (h *Hist) Mean() float64 { return h.acc.Mean() }

// Min returns the smallest observation, or 0 when empty.
func (h *Hist) Min() float64 { return h.acc.Min }

// Max returns the largest observation, or 0 when empty.
func (h *Hist) Max() float64 { return h.acc.Max }

// Percentile returns an upper bound on the p-th percentile (0 < p <= 100),
// accurate to the bucket resolution.
func (h *Hist) Percentile(p float64) int64 {
	if h.acc.N == 0 {
		return 0
	}
	target := int64(math.Ceil(p / 100 * float64(h.acc.N)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := h.nextLive(-1); i < numBuckets; i = h.nextLive(i) {
		seen += h.count(i)
		if seen >= target {
			return bucketLow(i)
		}
	}
	return int64(h.acc.Max)
}

// Merge folds another histogram into h.
func (h *Hist) Merge(o *Hist) {
	for pi, op := range o.pages {
		if op == nil {
			continue
		}
		p := h.pages[pi]
		if p == nil {
			p = new(page)
			h.pages[pi] = p
		}
		for j, c := range op {
			p[j] += c
		}
	}
	h.acc.Merge(o.acc)
}

// InverseCDFPoint is one point of an inverse cumulative distribution: the
// fraction of observations strictly greater than Value.
type InverseCDFPoint struct {
	Value    int64
	Fraction float64
}

// InverseCDF returns the inverse cumulative distribution (fraction of
// observations exceeding each occupied bucket boundary), the presentation
// used by the paper's Figure 7b.
func (h *Hist) InverseCDF() []InverseCDFPoint {
	if h.acc.N == 0 {
		return nil
	}
	var out []InverseCDFPoint
	remaining := h.acc.N
	for i := h.nextLive(-1); i < numBuckets; i = h.nextLive(i) {
		remaining -= h.count(i)
		out = append(out, InverseCDFPoint{
			Value:    bucketLow(i),
			Fraction: float64(remaining) / float64(h.acc.N),
		})
	}
	return out
}

// TimeSeries accumulates observations into fixed-width time bins,
// producing the latency-over-time curves of Figures 7a and 8.
type TimeSeries struct {
	BinWidth int64
	bins     []Acc
}

// NewTimeSeries returns a time series with the given bin width in cycles.
func NewTimeSeries(binWidth int64) *TimeSeries {
	if binWidth <= 0 {
		panic("stats: non-positive time-series bin width")
	}
	return &TimeSeries{BinWidth: binWidth}
}

// Add records an observation at the given time. Negative times (before
// the measurement origin) are ignored.
func (t *TimeSeries) Add(now int64, v float64) {
	if now < 0 {
		return
	}
	b := int(now / t.BinWidth)
	for len(t.bins) <= b {
		t.bins = append(t.bins, Acc{})
	}
	t.bins[b].Add(v)
}

// Bins returns the accumulated bins.
func (t *TimeSeries) Bins() []Acc { return t.bins }

// Merge folds another time series into t. Both series must share the same
// bin width; the result is as if every observation of o had been added to
// t directly.
func (t *TimeSeries) Merge(o *TimeSeries) {
	if o == nil {
		return
	}
	if o.BinWidth != t.BinWidth {
		panic(fmt.Sprintf("stats: merging time series with bin widths %d and %d", t.BinWidth, o.BinWidth))
	}
	for len(t.bins) < len(o.bins) {
		t.bins = append(t.bins, Acc{})
	}
	for i, b := range o.bins {
		t.bins[i].Merge(b)
	}
}

// Means returns (binStartTime, mean) pairs for every non-empty bin.
func (t *TimeSeries) Means() ([]int64, []float64) {
	var ts []int64
	var vs []float64
	for i, b := range t.bins {
		if b.N == 0 {
			continue
		}
		ts = append(ts, int64(i)*t.BinWidth)
		vs = append(vs, b.Mean())
	}
	return ts, vs
}

// Table is a tiny helper for rendering aligned experiment tables.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// csvCell escapes one CSV cell per RFC 4180: cells containing commas,
// quotes, or newlines are quoted, with embedded quotes doubled.
func csvCell(c string) string {
	if !strings.ContainsAny(c, ",\"\n\r") {
		return c
	}
	return "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(csvCell(c))
	}
	b.WriteByte('\n')
}

// CSV renders the table as RFC 4180 comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Header)
	for _, r := range t.Rows {
		writeCSVRow(&b, r)
	}
	return b.String()
}

// Quantiles computes exact quantiles of a small sample (used in tests to
// validate the histogram approximation).
func Quantiles(sample []float64, qs ...float64) []float64 {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if len(s) == 0 {
			continue
		}
		k := int(math.Ceil(q*float64(len(s)))) - 1
		if k < 0 {
			k = 0
		}
		if k >= len(s) {
			k = len(s) - 1
		}
		out[i] = s[k]
	}
	return out
}
