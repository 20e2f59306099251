package harness

import (
	"strconv"
	"strings"
	"testing"
)

func testOpts(t *testing.T) *Options {
	t.Helper()
	return &Options{
		Base:  Spec{Preset: "tiny", Seed: 1, Invariants: 64},
		Quick: true,
		Log:   func(format string, args ...any) { t.Logf(format, args...) },
	}
}

func cell(tb interface {
	Fatalf(string, ...any)
}, row []string, i int) float64 {
	v, err := strconv.ParseFloat(row[i], 64)
	if err != nil {
		tb.Fatalf("cell %d = %q: %v", i, row[i], err)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tab, err := Table1(testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	total := tab.Rows[3]
	if !strings.HasPrefix(total[3], "72.") {
		t.Fatalf("total underutilization %q, paper says ~72%%", total[3])
	}
}

func TestTable2Shape(t *testing.T) {
	tab, err := Table2(testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("%d applications", len(tab.Rows))
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	lat, acc, err := Fig5(testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(lat.Rows) == 0 || len(acc.Rows) == 0 {
		t.Fatal("empty tables")
	}
	// At the lowest load every network accepts what is offered.
	first := acc.Rows[0]
	load := cell(t, first, 0)
	for i := 1; i < len(first); i++ {
		if v := cell(t, first, i); v < load*0.95 || v > load*1.05 {
			t.Fatalf("network %d accepted %.3f at offered %.3f", i, v, load)
		}
	}
	// At the highest load, the 25%-capacity network accepts the least.
	last := acc.Rows[len(acc.Rows)-1]
	base, s25 := cell(t, last, 1), cell(t, last, 4)
	if s25 >= base {
		t.Fatalf("stash-25%% (%.3f) did not saturate below baseline (%.3f)", s25, base)
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	r, err := Fig7(testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	// Percentile table rows: reference, baseline, stash100, stash50.
	if len(r.InvCDF.Rows) != 4 {
		t.Fatalf("%d distribution rows", len(r.InvCDF.Rows))
	}
	// Columns: Network, p50, p90, p99, ...
	ref90 := cell(t, r.InvCDF.Rows[0], 2)
	base90 := cell(t, r.InvCDF.Rows[1], 2)
	base99 := cell(t, r.InvCDF.Rows[1], 3)
	stash99 := cell(t, r.InvCDF.Rows[2], 3)
	if base90 <= ref90 {
		t.Fatalf("aggressor did not hurt the baseline (p90 %.0f vs ref %.0f)", base90, ref90)
	}
	// On the tiny test network the distribution is noisy; require the
	// stash tail to be no worse than the baseline's (the full-scale shape
	// check lives in the small/paper-preset runs of cmd/figures).
	if stash99 > base99*1.05 {
		t.Fatalf("stashing worsened victim p99 (%.0f vs baseline %.0f)", stash99, base99)
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	tab, err := Fig9(testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	// The tiny network cannot reproduce the paper's absolute ordering
	// (its victims cannot even sustain 40%% load against a saturating
	// aggressor half), so assert the structural properties only: the
	// baseline's tail latency must grow from the smallest to the
	// intermediate burst sizes (the ECN transient blind spot), and the
	// stash columns must be populated and bounded. The paper-shape
	// ordering is asserted against the small-preset results recorded in
	// EXPERIMENTS.md.
	first, mid := tab.Rows[0], tab.Rows[len(tab.Rows)/2]
	if cell(t, mid, 1) <= cell(t, first, 1) {
		t.Fatalf("baseline p90 did not grow with burstiness: %v -> %v", first, mid)
	}
	for _, row := range tab.Rows {
		for i := 1; i < len(row); i++ {
			if v := cell(t, row, i); v <= 0 || v > 1000 {
				t.Fatalf("implausible p90 %v in row %v", v, row)
			}
		}
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	o := testOpts(t)
	tab, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("%d traces", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if v := cell(t, row, 2); v != 1.0 {
			t.Fatalf("%s baseline not normalized to 1.0: %v", row[0], v)
		}
		// Stash networks may differ but must stay within a sane factor.
		for i := 3; i < len(row); i++ {
			if v := cell(t, row, i); v < 0.5 || v > 3.0 {
				t.Fatalf("%s variant %d runtime ratio %.2f implausible", row[0], i, v)
			}
		}
	}
}

// TestAblationsShape builds the ablation table at tiny scale: one row per
// design choice, every variant still switching traffic at full offered
// load, and the two choices that take bandwidth or space away (no internal
// speedup, a quarter of the stash) accepting less than the reference.
func TestAblationsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	tab, err := Ablations(testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("%d ablation rows, want 7", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if acc := cell(t, row, 1); acc <= 0.2 || acc > 1.05 {
			t.Fatalf("%s: accepted throughput %.3f implausible at full load", row[0], acc)
		}
		if lat := cell(t, row, 2); lat <= 0 {
			t.Fatalf("%s: mean latency %.3f us", row[0], lat)
		}
	}
	ref := cell(t, tab.Rows[0], 1)
	for _, i := range []int{2, 5} {
		if row := tab.Rows[i]; cell(t, row, 1) >= ref {
			t.Fatalf("%s accepted %s, no less than the reference's %.3f", row[0], row[1], ref)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	o := testOpts(t)
	o.OutDir = t.TempDir()
	if _, err := Table1(o); err != nil {
		t.Fatal(err)
	}
	if _, err := Table2(o); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownPresetIsAnError: a misspelt preset used to fall through to
// the small network silently; every experiment that builds a network must
// refuse it instead, before building anything.
func TestUnknownPresetIsAnError(t *testing.T) {
	o := testOpts(t)
	o.Base.Preset = "smal"
	exps := map[string]func() error{
		"fig5":      func() error { _, _, err := Fig5(o); return err },
		"fig6":      func() error { _, err := Fig6(o); return err },
		"fig7":      func() error { _, err := Fig7(o); return err },
		"fig9":      func() error { _, err := Fig9(o); return err },
		"ablations": func() error { _, err := Ablations(o); return err },
		"faults":    func() error { _, err := Faults(o); return err },
	}
	for name, run := range exps {
		if err := run(); err == nil || !strings.Contains(err.Error(), `unknown preset "smal"`) {
			t.Errorf("%s with preset %q: err = %v, want an unknown-preset error", name, o.Base.Preset, err)
		}
	}
}
