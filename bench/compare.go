package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// Verdicts of comparing a change (B) with its parent (A) on one metric
// of one workload.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges b against a on one metric. An exact metric (simulated,
// so repeatable for a fixed seed) compares with ==: any difference is
// better or worse, never noise. A host-time metric is worse when b's
// median is worse than a's by more than the bound, better when it is
// better by more than the bound. When either side's inter-quartile
// spread is wider than the bound the medians cannot carry that call:
// the verdict is then unresolved, unless the runs do not overlap at
// all, in which case every run of one side beat every run of the other.
func verdict(d metricDef, a, b metricResult) string {
	lower := d.better == "lower"
	if d.exact {
		switch {
		case a.Median == b.Median && a.Q1 == b.Q1 && a.Q3 == b.Q3:
			return verdictSame
		case (b.Median < a.Median) == lower:
			return verdictBetter
		default:
			return verdictWorse
		}
	}
	if a.spread() > d.bound || b.spread() > d.bound {
		aMin, aMax := extent(a.Samples)
		bMin, bMax := extent(b.Samples)
		switch {
		case bMax < aMin:
			return pick(lower, verdictBetter, verdictWorse)
		case bMin > aMax:
			return pick(lower, verdictWorse, verdictBetter)
		default:
			return verdictUnresolved
		}
	}
	worsening := ratio(b.Median-a.Median, a.Median)
	if !lower {
		worsening = -worsening
	}
	switch {
	case worsening > d.bound:
		return verdictWorse
	case worsening < -d.bound:
		return verdictBetter
	default:
		return verdictSame
	}
}

func pick(cond bool, yes, no string) string {
	if cond {
		return yes
	}
	return no
}

// extent returns the smallest and largest of xs, zeros when empty.
func extent(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	return slices.Min(xs), slices.Max(xs)
}

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &results{}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// median and quartiles, the ratio B/A with its base, and the verdict.
// It reports whether the comparison fails: any worse metric, or a
// higher share of failed operations in B.
func compareFiles(w io.Writer, pathA, pathB string) (failed bool, err error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (commit %s dirty=%v, %s, seed %d, %d repeats)\n", pathA, a.Env.Commit, a.Env.Dirty, a.Env.GoVersion, a.Env.Seed, a.Env.Repeats)
	fmt.Fprintf(w, "B = %s (commit %s dirty=%v, %s, seed %d, %d repeats)\n", pathB, b.Env.Commit, b.Env.Dirty, b.Env.GoVersion, b.Env.Seed, b.Env.Repeats)
	if a.Env.Seed != b.Env.Seed || a.Env.Seconds != b.Env.Seconds {
		return false, fmt.Errorf("the two files ran different inputs (seed %d/%d, seconds %d/%d): exact metrics cannot be compared",
			a.Env.Seed, b.Env.Seed, a.Env.Seconds, b.Env.Seconds)
	}
	counts := map[string]int{}
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, cand := range b.Workloads {
			if cand.Name == wa.Name {
				wb = cand
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "\n== %s: missing from B\n", wa.Name)
			failed = true
			continue
		}
		fmt.Fprintf(w, "\n== %s: failed A %d/%d, B %d/%d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		if ratio(float64(wb.Failed), float64(wb.Attempted)) > ratio(float64(wa.Failed), float64(wa.Attempted)) {
			fmt.Fprintf(w, "   B has a higher share of failed operations\n")
			failed = true
		}
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			v := verdict(d, ma, mb)
			counts[v]++
			if v == verdictWorse {
				failed = true
			}
			fmt.Fprintf(w, "   %-22s %-9s A %-11.6g [%-11.6g %-11.6g] n=%-2d  B %-11.6g [%-11.6g %-11.6g] n=%-2d  B/A %.4f (base %.6g)  %s\n",
				d.name, d.unit, ma.Median, ma.Q1, ma.Q3, ma.N, mb.Median, mb.Q1, mb.Q3, mb.N,
				ratio(mb.Median, ma.Median), ma.Median, v)
		}
		// No verdict: the medians as measured and the slowdown the host
		// times above were divided by, so the correction can be checked.
		for _, name := range rawMetrics {
			ra, rb := median(wa.Raw[name]), median(wb.Raw[name])
			fmt.Fprintf(w, "   %-22s as measured  A %-11.6g B %-11.6g B/A %.4f (base %.6g)\n", name, ra, rb, ratio(rb, ra), ra)
		}
	}
	fmt.Fprintf(w, "\n%d same, %d better, %d worse, %d unresolved\n",
		counts[verdictSame], counts[verdictBetter], counts[verdictWorse], counts[verdictUnresolved])
	return failed, nil
}
