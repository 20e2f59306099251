package metrics

import (
	"fmt"

	"stashsim/internal/sim"
	"stashsim/internal/stats"
)

// Sampler polls a set of named probes at a fixed cycle interval,
// accumulating each probe into a stats.TimeSeries. It is a barrier
// observer (network.Observer): it names the multiples of its interval and
// is polled after each. Probes are registered before the run.
type Sampler struct {
	every  int64
	names  []string
	fns    []func() float64 //stashsim:transient -- probe closures, re-registered by the wiring
	series []*stats.TimeSeries
}

// NewSampler returns a sampler firing every `every` cycles (every <= 0
// panics: a zero interval would sample every Step).
func NewSampler(every int64) *Sampler {
	if every <= 0 {
		panic("metrics: non-positive sampling interval")
	}
	return &Sampler{every: every}
}

// Probe registers one named probe function.
//
//stashsim:phase serial -- probes are registered before the run starts
func (s *Sampler) Probe(name string, fn func() float64) {
	if s == nil {
		return
	}
	s.names = append(s.names, name)
	s.fns = append(s.fns, fn)
	s.series = append(s.series, stats.NewTimeSeries(s.every))
}

// NextEventAt names the sampling cycles: the multiples of the interval.
//
//stashsim:phase serial
func (s *Sampler) NextEventAt(from int64) int64 {
	if s == nil {
		return sim.Never
	}
	return sim.NextMultiple(from, s.every)
}

// AtBarrier polls every probe after cycle now.
//
//stashsim:phase serial -- probes walk live component state
func (s *Sampler) AtBarrier(now int64) {
	if s == nil {
		return
	}
	for i, fn := range s.fns {
		s.series[i].Add(now, fn())
	}
}

// Series returns the time series of the named probe, or nil.
func (s *Sampler) Series(name string) *stats.TimeSeries {
	if s == nil {
		return nil
	}
	for i, n := range s.names {
		if n == name {
			return s.series[i]
		}
	}
	return nil
}

// Table renders all probes as one table with a shared cycle column; bins
// a probe missed (registered late) render as empty cells.
func (s *Sampler) Table() *stats.Table {
	if s == nil {
		return &stats.Table{Header: []string{"cycle"}}
	}
	t := &stats.Table{Header: []string{"cycle"}}
	t.Header = append(t.Header, s.names...)
	maxBins := 0
	for _, ts := range s.series {
		if n := len(ts.Bins()); n > maxBins {
			maxBins = n
		}
	}
	for b := 0; b < maxBins; b++ {
		row := []string{fmt.Sprintf("%d", int64(b)*s.every)}
		keep := false
		for _, ts := range s.series {
			bins := ts.Bins()
			if b < len(bins) && bins[b].N > 0 {
				row = append(row, fmt.Sprintf("%.4f", bins[b].Mean()))
				keep = true
			} else {
				row = append(row, "")
			}
		}
		if keep {
			t.AddRow(row...)
		}
	}
	return t
}

// CSV renders the sample table as RFC 4180 CSV.
func (s *Sampler) CSV() string {
	if s == nil {
		return (&stats.Table{Header: []string{"cycle"}}).CSV()
	}
	return s.Table().CSV()
}
