package metrics

import (
	"encoding/json"
	"io"
	"slices"
	"strings"
	"testing"
)

// TestRegistryCountersGaugesHists: the registry stores no values. It names
// the fields it is handed, reads them when asked, and lists them in one
// table. (It has no histograms; the test keeps the name it is known by.)
func TestRegistryCountersGaugesHists(t *testing.T) {
	reg := NewRegistry()
	sc := reg.Scope("sw0")
	var stores, stores1, other int64
	sc.Counter("stash.stores", &stores)
	stores = 5
	if got := reg.Sum("stash.stores"); got != 5 {
		t.Fatalf("Sum = %d, want the field's 5", got)
	}
	sc.Gauge("fill", func() float64 { return 0.25 })
	if reg.Scope("sw0") != sc {
		t.Fatal("re-resolving a scope must return the same scope")
	}
	names := reg.Series()

	reg.Scope("sw1").Counter("stash.stores", &stores1)
	stores1 = 7
	if got := reg.Sum("stash.stores"); got != 12 {
		t.Fatalf("Sum = %d, want 12", got)
	}
	tn, tv := reg.Totals()
	if len(tn) != 1 || tn[0] != "stash.stores" || tv[0] != 12 {
		t.Fatalf("Totals = %v %v", tn, tv)
	}

	// A registration invalidates the name table; nothing else rebuilds it.
	if len(names) != 2 || len(reg.Series()) != 3 {
		t.Fatalf("name table has %d then %d rows, want 2 then 3", len(names), len(reg.Series()))
	}
	if a, b := reg.Series(), reg.Series(); &a[0] != &b[0] {
		t.Fatal("Series rebuilt the name table without a registration in between")
	}
	want := []Series{{"sw0", "stash.stores", false}, {"sw0", "fill", true}, {"sw1", "stash.stores", false}}
	if got := reg.Series(); !slices.Equal(got, want) {
		t.Fatalf("Series = %v, want %v", got, want)
	}
	if got := reg.Read(); !slices.Equal(got, []float64{5, 0.25, 7}) {
		t.Fatalf("Read = %v, want [5 0.25 7]", got)
	}
	// Re-registering a name points it at the new field, in place.
	sc.Counter("stash.stores", &other)
	other = 1
	if got := reg.Read(); !slices.Equal(got, []float64{1, 0.25, 7}) {
		t.Fatalf("Read after re-registration = %v, want [1 0.25 7]", got)
	}
	if tbl := reg.Table(); len(tbl.Rows) != 3 || tbl.Rows[1][2] != "0.2500" {
		t.Fatalf("Table = %v", tbl.Rows)
	}
}

// TestNilFastPathNoAllocs asserts the disabled (nil-handle) observability
// path performs zero allocations: this is the benchmark guard's invariant
// that leaving the instrumentation compiled in is free by default.
func TestNilFastPathNoAllocs(t *testing.T) {
	var reg *Registry
	var tr *Tracer
	var sp *Sampler
	var wd *Watchdog
	var v int64
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Record(1, EvInject, 42, 0, -1, 1, 2)
		sp.AtBarrier(1000)
		wd.AtBarrier(1000)
		reg.Scope("sw0").Counter("x", &v) // nil registry -> nil scope -> nothing registered
		_ = reg.Sum("x")
	})
	if allocs != 0 {
		t.Fatalf("disabled observability path allocated %.1f times per run, want 0", allocs)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := int64(0); i < 6; i++ {
		tr.Record(i, EvRoute, uint64(i), 0, 0, 0, 0)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(i) + 2; ev.Time != want {
			t.Fatalf("event %d time = %d, want %d (oldest evicted first)", i, ev.Time, want)
		}
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("len = %d, want 4", got)
	}
}

func TestTracerJSONLValid(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(5, EvInject, 0xab00000001, 3, -1, 3, 9)
	tr.Record(9, EvRoute, 0xab00000001, 1, 4, 3, 9)
	tr.Record(30, EvEject, 0xab00000001, 9, -1, 3, 9)
	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3", len(lines))
	}
	for i, line := range lines {
		var rec struct {
			T    int64  `json:"t"`
			Ev   string `json:"ev"`
			Pkt  string `json:"pkt"`
			Node int32  `json:"node"`
			Aux  int32  `json:"aux"`
			Src  int32  `json:"src"`
			Dst  int32  `json:"dst"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if rec.Pkt != "ab00000001" {
			t.Fatalf("line %d pkt = %q", i, rec.Pkt)
		}
	}
	if got := lines[0]; !strings.Contains(got, `"ev":"inject"`) {
		t.Fatalf("first line missing inject event: %s", got)
	}
}

func TestTracerChromeTraceValid(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(5, EvInject, 7, 3, -1, 3, 9)
	tr.Record(9, EvRoute, 7, 1, 4, 3, 9)
	tr.Record(12, EvStashStore, 7, 1, 2, 3, 9)
	tr.Record(30, EvEject, 7, 9, -1, 3, 9)
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var begins, ends, instants int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "b":
			begins++
		case "e":
			ends++
		case "i":
			instants++
		}
	}
	if begins != 1 || ends != 1 {
		t.Fatalf("async span begin/end = %d/%d, want 1/1", begins, ends)
	}
	if instants != 4 {
		t.Fatalf("instant events = %d, want 4", instants)
	}
}

// poll does on cycle now what the network's barrier schedule does with an
// observer: call it only if it named the cycle.
func poll(o interface {
	NextEventAt(from int64) int64
	AtBarrier(now int64)
}, now int64) {
	if o.NextEventAt(now) == now {
		o.AtBarrier(now)
	}
}

func TestSampler(t *testing.T) {
	sp := NewSampler(5)
	v := 0.0
	sp.Probe("fill", func() float64 { return v })
	sp.Probe("backlog", func() float64 { return 2 * v })
	for now := int64(0); now <= 10; now++ {
		v = float64(now)
		poll(sp, now)
	}
	ts := sp.Series("fill")
	if ts == nil {
		t.Fatal("Series(fill) = nil")
	}
	times, vals := ts.Means()
	if len(times) != 3 || vals[0] != 0 || vals[1] != 5 || vals[2] != 10 {
		t.Fatalf("fill samples = %v %v, want [0 5 10] at [0 5 10]", times, vals)
	}
	tbl := sp.Table()
	if len(tbl.Header) != 3 || len(tbl.Rows) != 3 {
		t.Fatalf("table %d cols x %d rows, want 3x3", len(tbl.Header), len(tbl.Rows))
	}
	if !strings.Contains(sp.CSV(), "cycle,fill,backlog") {
		t.Fatalf("CSV header missing: %s", sp.CSV())
	}
	if sp.Series("nope") != nil {
		t.Fatal("unknown probe must return nil series")
	}
}

func TestWatchdog(t *testing.T) {
	delivered := int64(0)
	pending := true
	var out strings.Builder
	dumped := 0

	// Progressing traffic: no stall.
	wd2 := &Watchdog{
		Window:    100,
		Out:       &out,
		Delivered: func() int64 { return delivered },
		Pending:   func() bool { return pending },
		Dump:      func(w io.Writer) { dumped++ },
	}
	for now := int64(0); now <= 1000; now++ {
		if now%10 == 0 {
			delivered++
		}
		poll(wd2, now)
	}
	if wd2.Stalls != 0 {
		t.Fatalf("progressing run produced %d stalls, want 0", wd2.Stalls)
	}

	// Frozen deliveries with pending work: stalls fire and dump.
	for now := int64(1001); now <= 1500; now++ {
		poll(wd2, now)
	}
	if wd2.Stalls == 0 {
		t.Fatal("frozen run produced no stalls")
	}
	if !strings.Contains(out.String(), "watchdog: no deliveries") {
		t.Fatalf("stall dump missing header: %q", out.String())
	}
	if dumped == 0 {
		t.Fatal("stall did not invoke Dump")
	}
	if int64(dumped) > wd2.Stalls {
		t.Fatalf("dumped %d times for %d stalls", dumped, wd2.Stalls)
	}

	// Nothing pending: an idle network is not a stall.
	pending = false
	idle := &Watchdog{Window: 100, Delivered: func() int64 { return delivered }, Pending: func() bool { return pending }}
	for now := int64(0); now <= 1000; now++ {
		poll(idle, now)
	}
	if idle.Stalls != 0 {
		t.Fatalf("idle run produced %d stalls, want 0", idle.Stalls)
	}
}

// TestWatchdogNoteSuppressesStall covers the fault-aware path: a
// zero-delivery window that Note explains (an active link outage) is
// reported as a one-line note, not a stall dump.
func TestWatchdogNoteSuppressesStall(t *testing.T) {
	var out strings.Builder
	dumped := 0
	outageEnd := int64(600)
	wd := &Watchdog{
		Window:    100,
		Out:       &out,
		Delivered: func() int64 { return 0 },
		Pending:   func() bool { return true },
		Dump:      func(w io.Writer) { dumped++ },
		Note: func(from, to int64) string {
			if from < outageEnd {
				return "outage active on link sw0.3->sw1.3 [0,600)"
			}
			return ""
		},
	}
	for now := int64(0); now <= 550; now++ {
		poll(wd, now)
	}
	if wd.Stalls != 0 {
		t.Fatalf("explained windows counted as %d stalls", wd.Stalls)
	}
	if wd.Suppressed == 0 {
		t.Fatal("no suppressed windows recorded")
	}
	if dumped != 0 {
		t.Fatal("Dump invoked for an explained window")
	}
	if !strings.Contains(out.String(), "explained: outage active on link sw0.3->sw1.3") {
		t.Fatalf("note missing from output: %q", out.String())
	}
	// Once the outage clears, an ongoing freeze is a real stall again.
	for now := int64(551); now <= 1200; now++ {
		poll(wd, now)
	}
	if wd.Stalls == 0 {
		t.Fatal("post-outage freeze produced no stall")
	}
	if dumped == 0 {
		t.Fatal("post-outage stall did not dump")
	}
}
