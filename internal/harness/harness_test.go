package harness

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"stashsim/internal/stats"
)

// tinyOpts is the scale every harness test runs at.
func tinyOpts() *Options {
	return &Options{Base: Spec{Preset: "tiny", Seed: 1, Invariants: 64}, Quick: true}
}

func testOpts(t *testing.T) *Options {
	o := tinyOpts()
	o.Log = func(format string, args ...any) { t.Logf(format, args...) }
	return o
}

func experiment(t *testing.T, name string) *Experiment {
	t.Helper()
	for _, e := range Experiments {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no experiment %q", name)
	return nil
}

// tinyRuns holds each experiment's outputs under tinyOpts, run once per
// test binary: the shape tests, TestWarmResumes' straight runs and
// TestExperimentIndex read the same runs.
var tinyRuns = map[string]func() ([]Output, error){}

func init() {
	for _, e := range Experiments {
		e := e
		tinyRuns[e.Name] = sync.OnceValues(func() ([]Output, error) { return e.Run(tinyOpts()) })
	}
}

func tinyRun(t *testing.T, name string) []Output {
	t.Helper()
	outs, err := tinyRuns[name]()
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// shape applies named criteria to a dataset and records the ones it fails.
type shape struct {
	t      *testing.T
	outs   []Output
	failed []string
}

// table finds an output by its file name.
func (s *shape) table(file string) *stats.Table {
	s.t.Helper()
	for _, out := range s.outs {
		if out.File == file {
			return out.Table
		}
	}
	s.t.Fatalf("no output %q in the dataset", file)
	return nil
}

func (s *shape) cell(row []string, i int) float64 {
	s.t.Helper()
	v, err := strconv.ParseFloat(row[i], 64)
	if err != nil {
		s.t.Fatalf("cell %d = %q: %v", i, row[i], err)
	}
	return v
}

// want records criterion name as failed unless ok.
func (s *shape) want(ok bool, name, format string, args ...any) {
	if !ok {
		s.failed = append(s.failed, name)
		s.t.Logf(name+": "+format, args...)
	}
}

// holds fails the test over any failed criterion.
func (s *shape) holds() {
	s.t.Helper()
	if len(s.failed) > 0 {
		s.t.Fatalf("shape criteria failed: %v", s.failed)
	}
}

// The check functions are DESIGN.md §5's shape criteria, executable. The
// ones under scaled need a network big enough for the paper's orderings —
// on tiny the victims of Fig. 9 cannot even sustain 40% load against a
// saturating aggressor half — and run on the committed datasets only.

func checkFig5(s *shape, scaled bool) {
	lat, acc := s.table("fig5a_latency"), s.table("fig5b_throughput")
	if len(lat.Rows) == 0 || len(acc.Rows) == 0 {
		s.t.Fatal("empty tables")
	}
	// At the lowest load every network accepts what is offered.
	first := acc.Rows[0]
	load := s.cell(first, 0)
	for i := 1; i < len(first); i++ {
		v := s.cell(first, i)
		s.want(v >= load*0.95 && v <= load*1.05, "fig5/accepts-offered-at-low-load",
			"network %d accepted %.3f at offered %.3f", i, v, load)
	}
	// At the highest load, the 25%-capacity network accepts the least.
	last := acc.Rows[len(acc.Rows)-1]
	base, s25 := s.cell(last, 1), s.cell(last, 4)
	s.want(s25 < base, "fig5/stash25-saturates-below-baseline",
		"stash-25%% (%.3f) did not saturate below baseline (%.3f)", s25, base)
	if !scaled {
		return
	}
	// Below saturation a copy of every packet costs next to nothing.
	for _, row := range lat.Rows {
		for i := 2; i <= 3 && s.cell(row, 0) <= 0.6; i++ {
			s.want(s.cell(row, i) <= s.cell(row, 1)*1.05, "fig5/unrestricted-stash-tracks-baseline",
				"load %s: network %d at %s us against baseline %s", row[0], i, row[i], row[1])
		}
	}
}

func checkFig6(s *shape, scaled bool) {
	tab := s.table("fig6_traces")
	if len(tab.Rows) != 6 {
		s.t.Fatalf("%d traces", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		s.want(s.cell(row, 2) == 1.0, "fig6/baseline-normalized", "%s baseline is %s", row[0], row[2])
		// Stash networks may differ but must stay within a sane factor.
		for i := 3; i < len(row); i++ {
			v := s.cell(row, i)
			s.want(v >= 0.5 && v <= 3.0, "fig6/ratios-plausible", "%s variant %d runtime ratio %.2f", row[0], i, v)
		}
		// The paper's band: at most 2% slower with the whole or half the stash.
		for i := 3; i <= 4 && scaled; i++ {
			s.want(s.cell(row, i) <= 1.02, "fig6/stash-within-2pct", "%s variant %d runtime ratio %s", row[0], i, row[i])
		}
	}
}

func checkFig7(s *shape, scaled bool) {
	inv := s.table("fig7b_percentiles")
	// Rows: reference, baseline, stash100, stash50; columns: Network, p50, p90, p99, ...
	if len(inv.Rows) != 4 {
		s.t.Fatalf("%d distribution rows", len(inv.Rows))
	}
	ref, base, stash := inv.Rows[0], inv.Rows[1], inv.Rows[2]
	s.want(s.cell(base, 2) > s.cell(ref, 2), "fig7/aggressor-hurts-baseline",
		"aggressor did not hurt the baseline (p90 %s vs ref %s)", base[2], ref[2])
	// On the tiny test network the distribution is noisy; require the
	// stash tail to be no worse than the baseline's.
	s.want(s.cell(stash, 3) <= s.cell(base, 3)*1.05, "fig7/stash-p99-no-worse",
		"stashing worsened victim p99 (%s vs baseline %s)", stash[3], base[3])
	if !scaled {
		return
	}
	s.want(s.cell(base, 3) > s.cell(ref, 3), "fig7/aggressor-shows-at-p99", "p99 %s vs ref %s", base[3], ref[3])
	s.want(s.cell(stash, 4) < s.cell(base, 4), "fig7/stash-cuts-the-tail", "p99.9 %s vs baseline %s", stash[4], base[4])
	// Fig. 8: the four sources offer ~4 flits/cycle at onset and ECN
	// throttles them to about one.
	util := s.table("fig8_stash")
	peak, last := 0.0, util.Rows[len(util.Rows)-1]
	for _, row := range util.Rows {
		peak = max(peak, s.cell(row, 2))
	}
	s.want(peak >= 3 && s.cell(last, 2) <= 1.2, "fig8/aggressor-throttled-4-to-1",
		"aggressor load peaks at %.2f and ends at %s flits/cycle", peak, last[2])
}

func checkFig9(s *shape, scaled bool) {
	tab := s.table("fig9_burst")
	// The baseline's tail latency must grow from the smallest to the
	// intermediate burst sizes (the ECN transient blind spot), and the
	// stash columns must be populated and bounded.
	first, mid := tab.Rows[0], tab.Rows[len(tab.Rows)/2]
	s.want(s.cell(mid, 1) > s.cell(first, 1), "fig9/baseline-grows-with-burst", "%v -> %v", first, mid)
	for _, row := range tab.Rows {
		for i := 1; i < len(row); i++ {
			v := s.cell(row, i)
			s.want(v > 0 && v <= 1000, "fig9/p90-plausible", "p90 %v in row %v", v, row)
		}
		for i := 2; i < len(row) && scaled; i++ {
			s.want(s.cell(row, i) <= s.cell(row, 1), "fig9/stash-below-baseline",
				"burst %s: network %d at %s us above baseline %s", row[0], i, row[i], row[1])
		}
	}
	if !scaled {
		return
	}
	// The baseline peaks at an intermediate burst and recovers under ECN.
	peak := 0
	for r, row := range tab.Rows {
		if s.cell(row, 1) > s.cell(tab.Rows[peak], 1) {
			peak = r
		}
	}
	s.want(peak > 0 && peak < len(tab.Rows)-1, "fig9/baseline-peaks-mid-sweep", "peak at burst %s", tab.Rows[peak][0])
}

// checkAblations: one row per design choice, every variant still switching
// traffic at full offered load, and the two choices that take bandwidth or
// space away (no internal speedup, a quarter of the stash) accepting less
// than the reference.
func checkAblations(s *shape) {
	tab := s.table("ablations")
	if len(tab.Rows) != 7 {
		s.t.Fatalf("%d ablation rows, want 7", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		acc := s.cell(row, 1)
		s.want(acc > 0.2 && acc <= 1.05, "ablations/accepted-plausible", "%s: accepted %.3f at full load", row[0], acc)
		s.want(s.cell(row, 2) > 0, "ablations/latency-positive", "%s: mean latency %s us", row[0], row[2])
	}
	ref := s.cell(tab.Rows[0], 1)
	for _, i := range []int{2, 5} {
		row := tab.Rows[i]
		s.want(s.cell(row, 1) < ref, "ablations/less-resource-accepts-less",
			"%s accepted %s, no less than the reference's %.3f", row[0], row[1], ref)
	}
}

func TestTable1Shape(t *testing.T) {
	tab := tinyRun(t, "table1")[0].Table
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	total := tab.Rows[3]
	if !strings.HasPrefix(total[3], "72.") {
		t.Fatalf("total underutilization %q, paper says ~72%%", total[3])
	}
}

func TestTable2Shape(t *testing.T) {
	if tab := tinyRun(t, "table2")[0].Table; len(tab.Rows) != 6 {
		t.Fatalf("%d applications", len(tab.Rows))
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s := &shape{t: t, outs: tinyRun(t, "fig5")}
	checkFig5(s, false)
	s.holds()
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s := &shape{t: t, outs: tinyRun(t, "fig7")}
	checkFig7(s, false)
	s.holds()
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s := &shape{t: t, outs: tinyRun(t, "fig9")}
	checkFig9(s, false)
	s.holds()
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s := &shape{t: t, outs: tinyRun(t, "fig6")}
	checkFig6(s, false)
	s.holds()
}

func TestAblationsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	s := &shape{t: t, outs: tinyRun(t, "ablations")}
	checkAblations(s)
	s.holds()
}

// committed parses every CSV of a committed dataset, results/<dir>.
func committed(t *testing.T, dir string) []Output {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("../../results", dir, "*.csv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed dataset in results/%s: %v (err %v)", dir, files, err)
	}
	var outs []Output
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil || len(recs) < 2 {
			t.Fatalf("%s: %d records, err %v", file, len(recs), err)
		}
		outs = append(outs, Output{File: strings.TrimSuffix(filepath.Base(file), ".csv"),
			Table: &stats.Table{Header: recs[0], Rows: recs[1:]}})
	}
	return outs
}

// TestCommittedResultsShape holds the committed datasets — every CSV of
// results/small and results/tiny must parse — to the same criteria, the
// scaled ones included for results/small. The criteria it is known to fail
// are findings EXPERIMENTS.md explains, listed here by name: a regenerated
// dataset that fixes one, or breaks another, fails until this list says so.
func TestCommittedResultsShape(t *testing.T) {
	known := map[string]string{
		// 64-rank traces on 342 endpoints: BIGFFT x1.43, FillBoundary x1.12,
		// MultiGrid and AMR a few percent over.
		"fig6/stash-within-2pct": `EXPERIMENTS.md "Figure 6", Shape match: the all-to-all concentrates on ~22 switches`,
		// p90 is 689 ns with and without the aggressor; the tail starts at p99.
		"fig7/aggressor-hurts-baseline": `EXPERIMENTS.md "Figure 7b", Deviation: two hotspots delay fewer than one victim packet in ten`,
		// Bursts 1-8: a stashed victim waits behind resident aggressor packets.
		"fig9/stash-below-baseline": `EXPERIMENTS.md "Figure 9", Deviation: one pool-wide retrieval FIFO`,
	}
	s := &shape{t: t, outs: committed(t, "small")}
	checkFig5(s, true)
	checkFig6(s, true)
	checkFig7(s, true)
	checkFig9(s, true)
	if tab := s.table("table2"); len(tab.Rows) != 6 || len(tab.Rows[0]) != len(tab.Header) {
		t.Errorf("results/small/table2.csv: %d applications of %d cells, want 6 of %d", len(tab.Rows), len(tab.Rows[0]), len(tab.Header))
	}
	failed := map[string]bool{}
	for _, name := range s.failed {
		failed[name] = true
		if known[name] == "" {
			t.Errorf("%s fails on results/small and is not a known finding", name)
		}
	}
	for name, why := range known {
		if !failed[name] {
			t.Errorf("%s now holds on results/small: drop it from the known findings (it was: %s)", name, why)
		}
	}
	tiny := &shape{t: t, outs: committed(t, "tiny")}
	checkAblations(tiny)
	tiny.holds()
}

// TestCSVOutput: what cmd/figures writes for an output reads back as the
// table — Table II's descriptions and the ablations' variant names carry
// commas (TestCommittedResultsShape reads the committed files back).
func TestCSVOutput(t *testing.T) {
	for _, name := range []string{"table1", "table2"} {
		for _, out := range tinyRun(t, name) {
			recs, err := csv.NewReader(strings.NewReader(out.Table.CSV())).ReadAll()
			if err != nil || !reflect.DeepEqual(recs, append([][]string{out.Table.Header}, out.Table.Rows...)) {
				t.Errorf("%s.csv reads back as %q (err %v)", out.File, recs, err)
			}
		}
	}
}

// TestUnknownPresetIsAnError: a misspelt preset used to fall through to
// the small network silently; every experiment that builds a network must
// refuse it instead, before building anything.
func TestUnknownPresetIsAnError(t *testing.T) {
	o := testOpts(t)
	o.Base.Preset = "smal"
	for _, e := range Experiments {
		if e.Plan(o).Points == 0 {
			continue // computed: no network, no preset
		}
		if _, err := e.Run(o); err == nil || !strings.Contains(err.Error(), `unknown preset "smal"`) {
			t.Errorf("%s with preset %q: err = %v, want an unknown-preset error", e.Name, o.Base.Preset, err)
		}
	}
}

// TestExperimentIndex: the experiment table is the only list in code, and
// the two lists in prose follow it — every -exp name has its row in
// DESIGN.md §5 and every file an experiment writes is in results/README.md.
func TestExperimentIndex(t *testing.T) {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	_, index, _ := strings.Cut(read("../../DESIGN.md"), "\n## 5. ")
	index, _, _ = strings.Cut(index, "\n## 6. ")
	for _, name := range Names() {
		if !strings.Contains(index, "-exp "+name+"`") {
			t.Errorf("DESIGN.md §5 has no `cmd/figures -exp %s`", name)
		}
	}
	if testing.Short() {
		return // the file names come with the runs
	}
	readme := read("../../results/README.md")
	for _, e := range Experiments {
		for _, out := range tinyRun(t, e.Name) {
			if !strings.Contains(readme, "`"+out.File+".csv`") {
				t.Errorf("results/README.md does not list %s.csv (%s)", out.File, e.Name)
			}
		}
	}
}

// TestPlans pins the table's plans — the numbers the checkpoint check of
// cmd/figures and the budget table of EXPERIMENTS.md ("One experiment
// table") are read from. A plan takes no network: the preset here has none.
func TestPlans(t *testing.T) {
	want := map[string][2]Plan{ // full, -quick
		"table1":    {{}, {}},
		"table2":    {{}, {}},
		"fig5":      {{40, 10000, 25000}, {16, 2000, 5000}},
		"fig6":      {{Points: 24}, {Points: 24}},
		"fig7":      {{Points: 4}, {Points: 4}},
		"ablations": {{7, 8000, 16000}, {7, 1600, 3200}},
		"fig9":      {{30, 10400, 32500}, {12, 2080, 6500}},
		"faults":    {{15, 5000, 20000}, {6, 1000, 4000}},
	}
	if len(want) != len(Experiments) {
		t.Errorf("%d experiments, plans pinned for %d", len(Experiments), len(want))
	}
	for _, e := range Experiments {
		for i, quick := range []bool{false, true} {
			o := &Options{Base: Spec{Preset: "no such preset"}, Quick: quick}
			if got := e.Plan(o); got != want[e.Name][i] {
				t.Errorf("%s, quick %v: plan %+v (%v), want %+v", e.Name, quick, got, got, want[e.Name][i])
			}
		}
	}
}
