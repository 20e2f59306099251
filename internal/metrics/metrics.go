// Package metrics is the switch-level observability subsystem: a
// zero-dependency registry of named counters and gauges with per-switch
// and per-tile scopes, a fixed-interval occupancy sampler, an opt-in
// ring-buffered packet-lifecycle tracer, a flight recorder, and a stall
// watchdog.
//
// Two rules keep it out of the simulation's way. An event is counted once,
// in a plain field of the component that sees it; the registry stores no
// values, it names those fields (Scope.Counter takes a pointer) so they can
// be listed, summed and exposed. And simulation state is read only at a
// barrier, by the goroutine that runs the simulation: every reader in this
// package is a serial-phase call, and what leaves for another goroutine is
// the copy the telemetry publisher hands off. So nothing here is atomic or
// locked but the tracer, the one sink components write to while they step.
package metrics

import (
	"fmt"
	"sort"

	"stashsim/internal/stats"
)

// counter is one registered counter: the name of a component's field.
type counter struct {
	name string
	v    *int64
}

// gauge is one registered gauge: a value worked out when it is read.
type gauge struct {
	name string
	fn   func() float64
}

// Scope is a named namespace of metrics (one per switch, one per tile).
// Registering on a nil *Scope, as a nil *Registry hands out, does nothing.
type Scope struct {
	name     string
	reg      *Registry
	counters []counter
	gauges   []gauge
}

// Counter registers the field v counts in under the given name.
// Re-registering a name points it at the new field.
//
//stashsim:phase serial -- registration is wiring-time work
func (s *Scope) Counter(name string, v *int64) {
	if s == nil {
		return
	}
	for i := range s.counters {
		if s.counters[i].name == name {
			s.counters[i].v = v
			return
		}
	}
	s.counters = append(s.counters, counter{name, v})
	s.reg.series = nil
}

// Gauge registers a gauge evaluated when the registry is read.
// Re-registering a name replaces the previous function.
//
//stashsim:phase serial -- registration is wiring-time work
func (s *Scope) Gauge(name string, fn func() float64) {
	if s == nil {
		return
	}
	for i := range s.gauges {
		if s.gauges[i].name == name {
			s.gauges[i].fn = fn
			return
		}
	}
	s.gauges = append(s.gauges, gauge{name, fn})
	s.reg.series = nil
}

// Series is one row of the registry's name table: a counter or gauge and
// the scope it was registered in.
type Series struct {
	Scope   string
	Name    string
	IsGauge bool
}

// Registry names the metrics of one simulation run. A nil *Registry — no
// metrics attached — has no scopes and no series and sums to zero.
type Registry struct {
	scopes []*Scope
	byName map[string]*Scope //stashsim:derived -- index of scopes by name
	series []Series          //stashsim:derived -- the name table, built on first use after a registration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Scope)}
}

// Scope returns (creating on first use) the named scope.
//
//stashsim:phase serial -- registration is wiring-time work
func (r *Registry) Scope(name string) *Scope {
	if r == nil {
		return nil
	}
	s := r.byName[name]
	if s == nil {
		s = &Scope{name: name, reg: r}
		r.byName[name] = s
		r.scopes = append(r.scopes, s)
	}
	return s
}

// Series returns the name table: every registered metric, scopes in
// registration order, within a scope the counters and then the gauges in
// registration order. The table is built once per wiring and shared by
// every caller, who must not change it.
//
//stashsim:phase serial -- builds the table on first use
func (r *Registry) Series() []Series {
	if r == nil {
		return nil
	}
	if r.series == nil {
		for _, s := range r.scopes {
			for _, c := range s.counters {
				r.series = append(r.series, Series{Scope: s.name, Name: c.name})
			}
			for _, g := range s.gauges {
				r.series = append(r.series, Series{Scope: s.name, Name: g.name, IsGauge: true})
			}
		}
	}
	return r.series
}

// Read returns the current value of every series, in table order.
//
//stashsim:phase serial -- reads component fields and evaluates gauges over live state
func (r *Registry) Read() []float64 {
	if r == nil {
		return nil
	}
	out := make([]float64, 0, len(r.Series()))
	for _, s := range r.scopes {
		for _, c := range s.counters {
			out = append(out, float64(*c.v))
		}
		for _, g := range s.gauges {
			out = append(out, g.fn())
		}
	}
	return out
}

// Totals sums every counter by metric name across all scopes (the
// network-wide view), returned with sorted names.
//
//stashsim:phase serial -- reads component fields
func (r *Registry) Totals() (names []string, values []int64) {
	if r == nil {
		return nil, nil
	}
	sums := make(map[string]int64)
	for _, s := range r.scopes {
		for _, c := range s.counters {
			if _, ok := sums[c.name]; !ok {
				names = append(names, c.name)
			}
			sums[c.name] += *c.v
		}
	}
	sort.Strings(names)
	for _, n := range names {
		values = append(values, sums[n])
	}
	return names, values
}

// Sum returns the total of one counter name across all scopes.
//
//stashsim:phase serial -- reads component fields
func (r *Registry) Sum(name string) int64 {
	if r == nil {
		return 0
	}
	var total int64
	for _, s := range r.scopes {
		for _, c := range s.counters {
			if c.name == name {
				total += *c.v
			}
		}
	}
	return total
}

// Table renders every metric as a (scope, metric, value) table. Whole
// values are formatted as integers, the rest with 4 decimal places.
//
//stashsim:phase serial -- reads component fields and evaluates gauges over live state
func (r *Registry) Table() *stats.Table {
	if r == nil {
		return &stats.Table{Header: []string{"scope", "metric", "value"}}
	}
	t := &stats.Table{Header: []string{"scope", "metric", "value"}}
	values := r.Read()
	for i, s := range r.Series() {
		if v := values[i]; v == float64(int64(v)) {
			t.AddRow(s.Scope, s.Name, fmt.Sprintf("%d", int64(v)))
		} else {
			t.AddRow(s.Scope, s.Name, fmt.Sprintf("%.4f", v))
		}
	}
	return t
}

// TotalsTable renders the cross-scope counter sums (the compact view the
// CLI prints by default).
//
//stashsim:phase serial -- reads component fields
func (r *Registry) TotalsTable() *stats.Table {
	if r == nil {
		return &stats.Table{Header: []string{"metric", "total"}}
	}
	t := &stats.Table{Header: []string{"metric", "total"}}
	names, values := r.Totals()
	for i, n := range names {
		t.AddRow(n, fmt.Sprintf("%d", values[i]))
	}
	return t
}
