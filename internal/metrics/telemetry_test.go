package metrics

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPromGolden pins the Prometheus text exposition byte-for-byte:
// family ordering, series ordering within a family, HELP/TYPE headers,
// name sanitization and label escaping. Regenerate with UPDATE_GOLDEN=1.
func TestPromGolden(t *testing.T) {
	r := NewRegistry()
	// Registration order is deliberately NOT sorted, and the scope names
	// exercise the label escaper (backslash, quote, newline).
	sw1 := r.Scope("sw1")
	sw0 := r.Scope("sw0")
	nasty := r.Scope("row\\0 \"hot\"\nspot")
	v := []int64{7, 41, 3, 9, 1}
	sw1.Counter("stash.stores", &v[0])
	sw1.Counter("delivered", &v[1])
	sw0.Counter("stash.stores", &v[2])
	sw0.Counter("credit-stalls", &v[3])
	nasty.Counter("stash.stores", &v[4])
	sw0.Gauge("occupancy%", func() float64 { return 12.5 })

	var buf bytes.Buffer
	samples := append(Samples(r.Series(), r.Read()),
		// Three more gauge families, named as the summaries of a distribution are.
		Sample{Scope: "sw1", Name: "queue.depth_count", Value: 2, IsGauge: true},
		Sample{Scope: "sw1", Name: "queue.depth_mean", Value: 6, IsGauge: true},
		Sample{Scope: "sw1", Name: "queue.depth_p99", Value: 8, IsGauge: true},
		Sample{Name: "up", Value: 1, IsGauge: true})
	if err := WriteProm(&buf, samples); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "prom_exposition.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exposition drifted from golden.\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

func TestPromEscaping(t *testing.T) {
	var buf bytes.Buffer
	err := WriteProm(&buf, []Sample{{Scope: `a\b"c` + "\nd", Name: "weird metric!", Value: 2}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `stashsim_weird_metric_{scope="a\\b\"c\nd"} 2`) {
		t.Fatalf("escaping wrong:\n%s", out)
	}
}

func TestPromFamilyOrderingStable(t *testing.T) {
	samples := []Sample{
		{Scope: "z", Name: "beta", Value: 1},
		{Scope: "a", Name: "beta", Value: 2},
		{Scope: "m", Name: "alpha", Value: 3},
	}
	var b1, b2 bytes.Buffer
	if err := WriteProm(&b1, samples); err != nil {
		t.Fatal(err)
	}
	// Same samples in a different arrival order must serialize identically.
	rev := []Sample{samples[2], samples[1], samples[0]}
	if err := WriteProm(&b2, rev); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("ordering unstable:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	alpha := strings.Index(b1.String(), "stashsim_alpha")
	beta := strings.Index(b1.String(), "stashsim_beta")
	if alpha == -1 || beta == -1 || alpha > beta {
		t.Fatalf("families not sorted:\n%s", b1.String())
	}
}

func TestFlightRecorderDeltasAndWrap(t *testing.T) {
	var total, depth int64
	f := NewFlightRecorder(4, func(raw []int64) { raw[0], raw[1] = total, depth },
		FlightField{Name: "delivered"}, FlightField{Name: "queue", Gauge: true})
	for cycle := int64(0); cycle < 10; cycle++ {
		total += cycle // deliver `cycle` flits this cycle
		depth = 100 - cycle
		f.AtBarrier(cycle)
	}
	rows := f.Snapshot(0)
	if len(rows) != 4 {
		t.Fatalf("%d rows, want ring cap 4", len(rows))
	}
	// Oldest retained row is cycle 6: delta 6, gauge 94.
	for i, row := range rows {
		cycle := int64(6 + i)
		if row[0] != cycle || row[1] != cycle || row[2] != 100-cycle {
			t.Fatalf("row %d = %v, want [%d %d %d]", i, row, cycle, cycle, 100-cycle)
		}
	}
	if rows := f.Snapshot(2); len(rows) != 2 || rows[1][0] != 9 {
		t.Fatalf("bounded snapshot wrong: %v", rows)
	}
}

func TestFlightRecorderRecordAllocFree(t *testing.T) {
	var total int64
	f := NewFlightRecorder(64, func(raw []int64) { raw[0] = total }, FlightField{Name: "delivered"})
	allocs := testing.AllocsPerRun(200, func() {
		total += 3
		f.AtBarrier(total)
	})
	if allocs != 0 {
		t.Fatalf("AtBarrier allocates %.1f/op, want 0", allocs)
	}
}

func TestFlightRecorderDump(t *testing.T) {
	var total int64
	f := NewFlightRecorder(8, func(raw []int64) { raw[0] = total }, FlightField{Name: "delivered"})
	for c := int64(0); c < 3; c++ {
		total += 5
		f.AtBarrier(c)
	}
	var buf bytes.Buffer
	f.Dump(&buf, 0)
	out := buf.String()
	for _, want := range []string{"last 3 intervals of 64 cycles", "delivered", "5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestWatchdogFlightDump wires a flight recorder into a watchdog dump the
// way the network does: a stall dump must carry the recent-interval table.
func TestWatchdogFlightDump(t *testing.T) {
	var delivered int64
	f := NewFlightRecorder(16, func(raw []int64) { raw[0] = delivered }, FlightField{Name: "delivered"})
	var out bytes.Buffer
	w := &Watchdog{
		Window:    10,
		Out:       &out,
		Delivered: func() int64 { return delivered },
		Pending:   func() bool { return true },
		Dump: func(wr io.Writer) {
			f.Dump(wr, 8)
		},
	}
	for now := int64(0); now <= 30; now++ {
		f.AtBarrier(now)
		poll(w, now)
	}
	if w.Stalls == 0 {
		t.Fatal("expected a stall")
	}
	if !w.Stalled() {
		t.Fatal("Stalled() must report the live stall")
	}
	if !strings.Contains(out.String(), "flight recorder: last") {
		t.Fatalf("stall dump missing flight table:\n%s", out.String())
	}
	// Deliveries resume: the liveness signal must clear at the next window.
	delivered = 50
	for now := int64(31); now <= 45; now++ {
		poll(w, now)
	}
	if w.Stalled() {
		t.Fatal("Stalled() must clear once deliveries resume")
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.AtBarrier(1)
	if f.Snapshot(0) != nil || f.FieldNames() != nil {
		t.Fatal("nil recorder accessors must be inert")
	}
	var buf bytes.Buffer
	f.Dump(&buf, 0)
	if buf.Len() != 0 {
		t.Fatal("nil recorder Dump must write nothing")
	}
}

func TestChromeTraceWithExtras(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(1, EvInject, 0xabc, 3, -1, 3, 7)
	tr.Record(5, EvEject, 0xabc, 7, -1, 3, 7)
	var buf bytes.Buffer
	err := tr.WriteChromeTraceWith(&buf, func(emit func(format string, args ...any) error) error {
		return emit(`{"name":"process_name","ph":"M","pid":2,"args":{"name":"executor"}}`)
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"name":"executor"`) {
		t.Fatalf("extra events missing:\n%s", out)
	}
	if strings.Contains(out, "}{") || strings.Contains(out, "},\n,") {
		t.Fatalf("comma separation broken:\n%s", out)
	}
}
