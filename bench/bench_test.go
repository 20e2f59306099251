package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// tinyRun executes one workload at the TinyConfig scale-down.
func tinyRun(t *testing.T, name string, traced bool) *record {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if w.workers > runtime.NumCPU() {
		t.Skipf("%s needs %d CPUs", name, w.workers)
	}
	return runWorkload(w.sized(1, true), 1, traced, t.TempDir())
}

// TestWorkloadsPassTheirChecks runs every workload scaled down, untraced
// and traced: the checks pass, every end-to-end metric is non-zero, the
// two runs simulate the same thing, and the emitted metric names are
// exactly the declared ones.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	kern := kernelMetrics()
	digests := map[string]string{}
	for i := range workloads {
		name := workloads[i].name
		t.Run(name, func(t *testing.T) {
			plain := tinyRun(t, name, false)
			traced := tinyRun(t, name, true)
			for _, rec := range []*record{plain, traced} {
				if len(rec.Failures) > 0 {
					t.Fatalf("traced=%v failed: %v", rec.Traced, rec.Failures)
				}
			}
			if plain.Digest != traced.Digest {
				t.Errorf("tracing changed the simulated outcome:\n plain  %s\n traced %s", plain.Digest, traced.Digest)
			}
			digests[name] = plain.Digest
			for _, d := range endToEnd {
				if v, ok := plain.Metrics[d.name]; !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v (present %v): must be a non-zero number on every workload", d.name, v, ok)
				}
			}
			// The correction can be undone from what a run records.
			for _, pair := range [][2]string{{"wall_s", "bench.raw_wall_s"}, {"setup_s", "bench.raw_setup_s"}} {
				ref, raw := plain.Metrics[pair[0]], plain.Metrics[pair[1]]
				if back := ref * plain.Metrics["bench.host_slowdown"]; math.Abs(back-raw) > 1e-9*raw {
					t.Errorf("%s %v x host_slowdown = %v, but %s = %v", pair[0], ref, back, pair[1], raw)
				}
			}
			for _, d := range perLayer {
				_, run := traced.Metrics[d.name]
				_, k := kern[d.name]
				if !run && !k {
					t.Errorf("per-layer metric %s is declared but not emitted", d.name)
				}
			}
			for name := range traced.Metrics {
				if _, ok := defByName(name); !ok {
					t.Errorf("metric %s is emitted but not declared", name)
				}
			}
		})
	}
	for name := range kern {
		if _, ok := defByName(name); !ok {
			t.Errorf("kernel %s is emitted but not declared", name)
		}
	}
	if s, p := digests["ur-serial"], digests["ur-par"]; s != "" && p != "" && s != p {
		t.Errorf("ur-par simulated something else than ur-serial:\n serial %s\n par    %s", s, p)
	}
}

// TestTracedRunWritesSpans checks the span file of a traced run: one
// root, every other span pointing at an earlier one, self times that
// add up to the root's duration.
func TestTracedRunWritesSpans(t *testing.T) {
	w, _ := workloadByName("faults-parity")
	dir := t.TempDir()
	rec := runWorkload(w.sized(1, true), 3, true, dir)
	if len(rec.Failures) > 0 {
		t.Fatal(rec.Failures)
	}
	data, err := os.ReadFile(filepath.Join(dir, "spans-faults-parity-seed3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	var self float64
	for i, s := range spans {
		names[s.Name] = true
		self += s.Self
		if (i == 0) != (s.Parent == -1) || s.Parent >= i {
			t.Errorf("span %d %s has parent %d", i, s.Name, s.Parent)
		}
		if s.Run != "faults-parity-seed3" {
			t.Errorf("span %d carries run id %q", i, s.Run)
		}
	}
	for _, want := range []string{"bench.run", "network.New", "traffic.wire", "network.Warmup", "network.Run", "network.Drain"} {
		if !names[want] {
			t.Errorf("no %s span", want)
		}
	}
	if root := spans[0].End - spans[0].Start; math.Abs(self-root) > 1e-6 {
		t.Errorf("self times sum to %v, root span lasted %v", self, root)
	}
}

// TestBrokenCheckIsAFailedOperation breaks faults-parity on purpose: a
// drain budget of one cycle cannot deliver everything, and that must
// come out as a failed operation, not as a fast run.
func TestBrokenCheckIsAFailedOperation(t *testing.T) {
	w, _ := workloadByName("faults-parity")
	broken := w.sized(1, true)
	broken.drain = 1
	rec := runWorkload(broken, 1, false, t.TempDir())
	if len(rec.Failures) == 0 {
		t.Fatal("a run that cannot drain reported no failure")
	}
	if !strings.Contains(strings.Join(rec.Failures, "\n"), "did not drain") {
		t.Errorf("failures do not name the drain: %v", rec.Failures)
	}
	var line struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(resultLine(rec)), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Attempted != 1 || line.Failed != 1 {
		t.Errorf("result line says %+v, want incorrect with 1 of 1 failed", line)
	}
}

// TestPanicIsAFailedOperation: a panic below runWorkload is recovered.
func TestPanicIsAFailedOperation(t *testing.T) {
	w, _ := workloadByName("ur-serial")
	bad := w.sized(1, true)
	bad.class = 200 // out of range: the collectors index by class
	rec := runWorkload(bad, 1, false, t.TempDir())
	if len(rec.Failures) == 0 || !strings.Contains(rec.Failures[0], "panic") {
		t.Fatalf("want a recovered panic, got %v", rec.Failures)
	}
}

func TestSteadyStateGuard(t *testing.T) {
	for i := range workloads {
		w := workloads[i].sized(1, false)
		if err := w.checkSteadyState(w.config(1)); err != nil {
			t.Errorf("table workload refused: %v", err)
		}
	}
	w, _ := workloadByName("sparse-paper")
	short := w.sized(1, false)
	short.warmup = 400 // BENCH_hotpath.json's settle, under the 650-cycle global link
	if err := short.checkSteadyState(short.config(1)); err == nil {
		t.Error("a 400-cycle warm-up on a 650-cycle global link was accepted")
	}
	if rec := runWorkload(short, 1, false, t.TempDir()); len(rec.Failures) == 0 {
		t.Error("running the under-warmed workload did not fail")
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestManifestMatchesMetrics keeps BENCHMARK.json and the tables in
// this package in step, and inside the benchmark contract's limits.
func TestManifestMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(top))
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v", m.Paths)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("name %q breaks the naming rule", s)
		}
		if seen[s] {
			t.Errorf("name %q used twice", s)
		}
		seen[s] = true
	}

	if len(m.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in the manifest, %d in the table", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest %q / table %q differ in name or why", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the table", len(m.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, e := range m.EndToEnd {
		d := endToEnd[i]
		name(e.Name)
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound == nil || *e.Bound != d.bound {
			t.Errorf("end-to-end %d: manifest %+v, table %+v", i, e, d)
		}
		if d.bound <= 0 || d.bound > 0.25 || !unitRE.MatchString(d.unit) {
			t.Errorf("%s: bound %v or unit %q outside the limits", d.name, d.bound, d.unit)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(m.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the table", len(m.PerLayer), len(perLayer))
	}
	for i, p := range m.PerLayer {
		d := perLayer[i]
		name(p.Name)
		if p.Name != d.name || p.Unit != d.unit || p.Better != d.better {
			t.Errorf("per-layer %d: manifest %+v, table %+v", i, p, d)
		}
		if !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("%s: unit %q or direction %q outside the limits", d.name, d.unit, d.better)
		}
	}
}

// TestResultLine pins the shape of the one-line result.
func TestResultLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rec := &record{Traced: traced, Metrics: map[string]float64{"wall_s": 1.5, "core.flits_sent": 7}}
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(resultLine(rec)), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 {
			t.Errorf("result line has keys %v", sortedKeys(line))
		}
		var ms map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(line["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(ms) != len(want) {
			t.Errorf("traced=%v: %d metrics on the line, want %d", traced, len(ms), len(want))
		}
		for _, d := range want {
			if ms[d.name].Unit != d.unit {
				t.Errorf("%s: unit %q on the line, %q declared", d.name, ms[d.name].Unit, d.unit)
			}
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4, 8, 15, 16, 23, 42}, 7, 15.5, 27.75},
		{[]float64{5}, 5, 5, 5},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.xs, s, c.q1, c.med, c.q3)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v", s)
	}
	if got := summarize([]float64{90, 100, 110, 120, 130}).spread(); math.Abs(got-0.3/1.1) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
}

func TestHostProbe(t *testing.T) {
	p := newHostProbe(1000, false)
	if got := p.slowdown(); got != 1 {
		t.Errorf("slowdown before any sample = %v, want 1", got)
	}
	p.sample()
	p.busy = true // the spinner must have stopped when sample returns
	p.sample()
	if len(p.samples) != 2 || p.samples[0] <= 0 || p.samples[1] <= 0 {
		t.Fatalf("samples = %v", p.samples)
	}
	p.samples = []float64{probeNominalNS, 2 * probeNominalNS}
	if got := p.slowdown(); got != 1.5 {
		t.Errorf("slowdown = %v, want 1.5", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "run", Parent: -1, Start: 0, End: 10},
		{Name: "new", Parent: 0, Start: 1, End: 3},
		{Name: "run.block", Parent: 0, Start: 3, End: 9},
		{Name: "new", Parent: 2, Start: 4, End: 5},
	}
	finish(spans)
	for i, want := range []float64{2, 2, 5, 1} {
		if spans[i].Self != want {
			t.Errorf("span %d self time %v, want %v", i, spans[i].Self, want)
		}
	}
	// A live tracer nests by call order and closes a span even when the
	// call panics.
	tr := newTracer("t")
	func() {
		defer func() { _ = recover() }()
		tr.span("outer", func() { tr.span("inner", func() { panic("boom") }) })
	}()
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].End == 0 || len(tr.open) != 0 {
		t.Errorf("tracer after a panic: %+v open %v", tr.spans, tr.open)
	}
	var none *tracer
	if d := none.span("x", func() {}); d < 0 {
		t.Error("nil tracer must still time the call")
	}
}

func result(samples ...float64) metricResult {
	return metricResult{Samples: samples, summary: summarize(samples)}
}

func TestVerdicts(t *testing.T) {
	host := metricDef{name: "wall_s", better: "lower", bound: 0.10}
	rate := metricDef{name: "sim_cycles_per_s", better: "higher", bound: 0.10}
	exact := metricDef{name: "sim_latency_mean_ns", better: "lower", bound: 0.05, exact: true}
	base := result(10, 10.1, 10.2, 9.9, 9.8)
	cases := []struct {
		name string
		d    metricDef
		a, b metricResult
		want string
	}{
		{"within bound", host, base, result(10.5, 10.4, 10.6, 10.5, 10.3), verdictSame},
		{"slower beyond bound", host, base, result(11.5, 11.4, 11.6, 11.5, 11.3), verdictWorse},
		{"faster beyond bound", host, base, result(8.5, 8.4, 8.6, 8.5, 8.3), verdictBetter},
		{"higher-better metric falls", rate, base, result(8.5, 8.4, 8.6, 8.5, 8.3), verdictWorse},
		{"higher-better metric rises", rate, base, result(11.5, 11.4, 11.6, 11.5, 11.3), verdictBetter},
		{"noisy and overlapping", host, result(8, 10, 12, 9, 11), result(9, 11, 13, 10, 12), verdictUnresolved},
		{"noisy but every run faster", host, result(8, 10, 12, 9, 11), result(5, 6, 7, 5.5, 6.5), verdictBetter},
		{"noisy but every run slower", host, result(8, 10, 12, 9, 11), result(15, 16, 17, 15.5, 20), verdictWorse},
		{"exact and equal", exact, result(613.07, 613.07, 613.07), result(613.07, 613.07, 613.07), verdictSame},
		{"exact and a hair higher", exact, result(613.07, 613.07, 613.07), result(613.08, 613.08, 613.08), verdictWorse},
		{"exact and lower", exact, result(613.07, 613.07, 613.07), result(600, 600, 600), verdictBetter},
	}
	for _, c := range cases {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall []float64, failed int) string {
		wr := &workloadResult{Name: "ur-serial", Attempted: len(wall), Failed: failed, EndToEnd: map[string]metricResult{},
			Raw: map[string][]float64{"bench.raw_wall_s": {12, 12.5, 13}, "bench.host_slowdown": {1.2, 1.25, 1.3}}}
		for _, d := range endToEnd {
			wr.EndToEnd[d.name] = result(1, 1, 1)
		}
		wr.EndToEnd["wall_s"] = result(wall...)
		data, err := json.Marshal(&results{Env: environment{Seed: 1, Seconds: 5}, Workloads: []*workloadResult{wr}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", []float64{10, 10.1, 9.9}, 0)
	same := write("same.json", []float64{10.2, 10.1, 10.3}, 0)
	slow := write("slow.json", []float64{13, 13.1, 12.9}, 0)
	flaky := write("flaky.json", []float64{10, 10.1, 9.9}, 1)

	var out bytes.Buffer
	if failed, err := compareFiles(&out, a, same); err != nil || failed {
		t.Errorf("equal runs: failed=%v err=%v\n%s", failed, err, out.String())
	}
	if !strings.Contains(out.String(), "(base 10)") {
		t.Errorf("ratios must name their base:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "bench.host_slowdown    as measured  A 1.25") {
		t.Errorf("the measured times and the slowdown must be printed beside the verdicts:\n%s", out.String())
	}
	out.Reset()
	if failed, err := compareFiles(&out, a, slow); err != nil || !failed || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 30%% slower wall_s must fail the comparison: failed=%v err=%v\n%s", failed, err, out.String())
	}
	if failed, err := compareFiles(&out, a, flaky); err != nil || !failed {
		t.Errorf("a higher failed share must fail the comparison: failed=%v err=%v", failed, err)
	}
	if _, err := compareFiles(&out, a, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing file must be an error")
	}
}
