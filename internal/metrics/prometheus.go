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

// Samples pairs a name table with the values read against it: the
// registry's own (Series, Read) or the copies a telemetry snapshot carries.
func Samples(names []Series, values []float64) []Sample {
	out := make([]Sample, len(names))
	for i, n := range names {
		out[i] = Sample{Scope: n.Scope, Name: n.Name, Value: values[i], IsGauge: n.IsGauge}
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
