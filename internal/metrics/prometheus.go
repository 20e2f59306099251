package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Sample is one exposition series: a metric name, the scope it came from
// (exposed as the "scope" label), and its value at read time.
type Sample struct {
	Scope   string
	Name    string
	Value   float64
	IsGauge bool
}

// CounterSamples reads every counter in the registry. Counter reads are
// atomic, so this is safe to call from a scraping goroutine while the
// simulation is mid-cycle (values may be torn *across* counters, never
// within one).
func (r *Registry) CounterSamples() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Sample
	for _, sn := range r.sorder {
		s := r.scopes[sn]
		for _, cn := range s.corder {
			out = append(out, Sample{Scope: sn, Name: cn, Value: float64(s.counters[cn].Value())})
		}
	}
	return out
}

// GaugeSamples evaluates every registered gauge. Gauge functions read
// live component state without synchronization, so this must only be
// called while the simulation is quiescent (between cycles, from a
// barrier observer, or after a run) — the telemetry snapshot path captures
// these into its published snapshot for exactly that reason.
func (r *Registry) GaugeSamples() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Sample
	for _, sn := range r.sorder {
		s := r.scopes[sn]
		for _, gn := range s.gorder {
			out = append(out, Sample{Scope: sn, Name: gn, Value: s.gauges[gn](), IsGauge: true})
		}
	}
	return out
}

// HistSamples summarizes every histogram as _count/_mean/_p99 gauge
// series. Histogram snapshots take the handle mutex, so this is safe at
// any time.
func (r *Registry) HistSamples() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type entry struct{ scope, name string }
	var handles []entry
	hs := make([]*Hist, 0)
	for _, sn := range r.sorder {
		s := r.scopes[sn]
		for _, hn := range s.horder {
			handles = append(handles, entry{sn, hn})
			hs = append(hs, s.hists[hn])
		}
	}
	r.mu.Unlock()
	var out []Sample
	for i, e := range handles {
		snap := hs[i].Snapshot()
		out = append(out,
			Sample{Scope: e.scope, Name: e.name + "_count", Value: float64(snap.N()), IsGauge: true},
			Sample{Scope: e.scope, Name: e.name + "_mean", Value: snap.Mean(), IsGauge: true},
			Sample{Scope: e.scope, Name: e.name + "_p99", Value: float64(snap.Percentile(99)), IsGauge: true},
		)
	}
	return out
}

// promName sanitizes a metric name into the Prometheus grammar
// [a-zA-Z_:][a-zA-Z0-9_:]* under the stashsim_ namespace
// ("stash.stores" → "stashsim_stash_stores").
func promName(name string) string {
	var b strings.Builder
	b.Grow(len("stashsim_") + len(name))
	b.WriteString("stashsim_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value per the text exposition format
// (backslash, double quote, newline).
func promEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatPromValue renders a value the way Prometheus expects: integers
// without an exponent, everything else in Go's shortest float form.
func formatPromValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteProm writes samples in the Prometheus text exposition format
// (version 0.0.4): one family per metric name with # HELP and # TYPE
// headers, families sorted by exposition name, series within a family
// sorted by scope label. Output is byte-stable for a fixed sample set,
// which the golden exposition test relies on.
func WriteProm(w io.Writer, samples []Sample) error {
	type series struct {
		scope string
		value float64
	}
	type family struct {
		name    string // exposition name
		raw     string // original metric name, for HELP
		isGauge bool
		series  []series
	}
	fams := make(map[string]*family)
	var order []string
	for _, s := range samples {
		name := promName(s.Name)
		f := fams[name]
		if f == nil {
			f = &family{name: name, raw: s.Name, isGauge: s.IsGauge}
			fams[name] = f
			order = append(order, name)
		}
		f.series = append(f.series, series{scope: s.Scope, value: s.Value})
	}
	sort.Strings(order)
	for _, name := range order {
		f := fams[name]
		sort.SliceStable(f.series, func(i, j int) bool { return f.series[i].scope < f.series[j].scope })
		typ := "counter"
		if f.isGauge {
			typ = "gauge"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s stashsim metric %s\n# TYPE %s %s\n", name, promEscape(f.raw), name, typ); err != nil {
			return err
		}
		for _, sr := range f.series {
			var err error
			if sr.scope == "" {
				_, err = fmt.Fprintf(w, "%s %s\n", name, formatPromValue(sr.value))
			} else {
				_, err = fmt.Fprintf(w, "%s{scope=\"%s\"} %s\n", name, promEscape(sr.scope), formatPromValue(sr.value))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
