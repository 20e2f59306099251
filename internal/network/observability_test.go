package network

import (
	"encoding/json"
	"strings"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/metrics"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/telemetry"
	"stashsim/internal/traffic"
)

// TestObservabilityEndToEnd runs a tiny e2e-mode network with the full
// observability stack attached and checks that every sink captures what the
// switches' own counters say happened.
func TestObservabilityEndToEnd(t *testing.T) {
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	cfg.StashParity = 4 // registers the four parity names too
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	reg := metrics.NewRegistry()
	n.EnableMetrics(reg)
	tr := metrics.NewTracer(1 << 14)
	n.EnableTracing(tr)
	sp := NewSampler(n, 500)
	n.Observe(sp)

	rng := sim.NewRNG(42)
	rate := n.ChannelRate()
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			0.2, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	n.Run(20000)
	if err := n.SanityCheck(); err != nil {
		t.Fatalf("sanity: %v", err)
	}

	// Nine registry names are other names for fields the switches count in
	// anyway; the rest are tallies only the registry reports.
	cnt := n.Counters()
	if cnt.StashStores == 0 || cnt.ParityGroupsSealed == 0 {
		t.Fatal("e2e run stashed or sealed nothing; test is vacuous")
	}
	for _, c := range []struct {
		name  string
		field int64
	}{
		{"stash.stores", cnt.StashStores},
		{"stash.retrieves", cnt.StashRetrieves},
		{"stash.full.stalls", cnt.StashFullStalls},
		{"hol.absorbed", cnt.HoLAbsorbed},
		{"credit.stall.cycles", n.TotalCreditStallCycles()},
		{"stash.recon.started", cnt.StashReconstructed},
		{"stash.recon.failed", cnt.StashReconFailed},
		{"stash.parity.sealed", cnt.ParityGroupsSealed},
		{"stash.degraded.reads", cnt.StashDegradedReads},
	} {
		if got := reg.Sum(c.name); got != c.field {
			t.Errorf("registry %s = %d, the switches' field sums to %d", c.name, got, c.field)
		}
	}
	for _, name := range []string{"cycles", "col.flits", "svc.flits", "grants", "jsq.pick.col0"} {
		if reg.Sum(name) == 0 {
			t.Errorf("registry-only tally %s read zero", name)
		}
	}
	if got, want := reg.Sum("cycles"), int64(20000*len(n.Switches)); got != want {
		t.Errorf("cycles = %d, want %d", got, want)
	}
	if col, grants := reg.Sum("col.flits"), reg.Sum("grants"); col != grants {
		t.Errorf("col.flits = %d but the tiles granted %d", col, grants)
	}

	// Tracer must have seen the packet lifecycle ends.
	var sawInject, sawEject, sawStore bool
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case metrics.EvInject:
			sawInject = true
		case metrics.EvEject:
			sawEject = true
		case metrics.EvStashStore:
			sawStore = true
		}
	}
	if !sawInject || !sawEject || !sawStore {
		t.Fatalf("tracer missing lifecycle events: inject=%v eject=%v store=%v",
			sawInject, sawEject, sawStore)
	}

	// Sampler must have produced rows and a parseable CSV.
	csv := sp.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 2 {
		t.Fatalf("sampler CSV has no data rows:\n%s", csv)
	}
	if !strings.HasPrefix(lines[0], "cycle,") {
		t.Fatalf("sampler CSV header: %q", lines[0])
	}
	if sp.Series("stash.fill") == nil {
		t.Fatal("sampler missing stash.fill probe")
	}

	// The trace must survive a round trip through both export formats.
	var jb strings.Builder
	if err := tr.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(jb.String()), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("JSONL line %d invalid: %s", i, line)
		}
	}
	var cb strings.Builder
	if err := tr.WriteChromeTrace(&cb); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(cb.String())) {
		t.Fatal("chrome trace is not valid JSON")
	}
}

// TestObservabilityDisabledIdentical verifies that attaching no sinks leaves
// simulation results bit-identical to a run that never imported them — i.e.
// the nil fast path cannot perturb outcomes.
func TestObservabilityDisabledIdentical(t *testing.T) {
	run := func(watched bool) *wakeObs {
		cfg := core.TinyConfig()
		cfg.Mode = core.StashE2E
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if watched {
			n.EnableMetrics(metrics.NewRegistry())
			n.EnableTracing(metrics.NewTracer(1 << 12))
			n.Observe(NewSampler(n, 1000))
		}
		rng := sim.NewRNG(7)
		rate := n.ChannelRate()
		for _, ep := range n.Endpoints {
			ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
				0.25, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
		}
		o := observe(n)
		n.Run(8000)
		return o.finish(n)
	}
	run(true).mustEqual(t, run(false))
}

// TestWatchdogQuietOnHealthyRun attaches the watchdog to a healthy run and
// requires zero false positives.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	w := NewWatchdog(n, 2000, &out, nil)
	n.Observe(w)
	rng := sim.NewRNG(3)
	rate := n.ChannelRate()
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			0.2, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	n.Run(20000)
	if w.Stalls != 0 {
		t.Fatalf("healthy run raised %d watchdog stalls:\n%s", w.Stalls, out.String())
	}
}

// TestExecProfileAndFlightEndToEnd wires the stall profiler and flight
// recorder into a real run and checks they agree with the simulation:
// profiled cycles match the run length, the flight tail's delivery deltas
// sum near the endpoint totals, and the telemetry snapshot ties it all
// together. It also pins the determinism guarantee: a profiled parallel
// run must produce the same outcomes as a bare serial one.
func TestExecProfileAndFlightEndToEnd(t *testing.T) {
	build := func() *Network {
		cfg := core.TinyConfig()
		cfg.Mode = core.StashE2E
		n, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rng := sim.NewRNG(42)
		rate := n.ChannelRate()
		for _, ep := range n.Endpoints {
			ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
				0.3, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
		}
		return n
	}

	const cycles = 8000
	bare := build()
	want := observe(bare)
	bare.Run(cycles)
	want.finish(bare)

	n := build()
	defer n.Close()
	got := observe(n)
	reg := metrics.NewRegistry()
	n.EnableMetrics(reg)
	n.SetWorkers(2)
	prof := n.EnableExecProfile(64)
	flight := NewFlightRecorder(n, 64)
	n.Observe(flight)
	n.Observe(telemetry.NewPublisher(n.TelemetrySnapshot, 128))
	n.Run(cycles)
	got.finish(n).mustEqual(t, want)

	rep := prof.Report()
	if rep.Cycles != cycles {
		t.Fatalf("profiler saw %d cycles, want %d", rep.Cycles, cycles)
	}
	if rep.Attribution.AttributedPct < 90 {
		t.Fatalf("attribution only %.1f%% of wall", rep.Attribution.AttributedPct)
	}
	if len(prof.Recent()) == 0 {
		t.Fatal("profiler ring empty")
	}

	// 8000 cycles are 125 full intervals: the 64-row ring has wrapped and
	// ends on the last multiple of the interval the run stepped.
	rows := flight.Snapshot(0)
	if len(rows) != 64 {
		t.Fatalf("flight retained %d rows, want 64", len(rows))
	}
	var deltaSum int64
	for i, row := range rows {
		if want := int64(7936 - metrics.FlightInterval*(63-i)); row[0] != want {
			t.Fatalf("flight row %d is cycle %d, want %d", i, row[0], want)
		}
		deltaSum += row[1] // "delivered" column
	}
	if deltaSum <= 0 || deltaSum > n.TotalDeliveredFlits() {
		t.Fatalf("flight delivery deltas sum %d vs total %d", deltaSum, n.TotalDeliveredFlits())
	}

	snap := n.TelemetrySnapshot()
	if snap.Cycle != cycles || snap.ExecProfile == nil || snap.Flight == nil {
		t.Fatalf("snapshot incomplete: %+v", snap)
	}
	if snap.DeliveredFlits != n.TotalDeliveredFlits() {
		t.Fatalf("snapshot flits %d, want %d", snap.DeliveredFlits, n.TotalDeliveredFlits())
	}
	if snap.CreditStallCycles != n.TotalCreditStallCycles() {
		t.Fatalf("snapshot credit stalls %d, want %d", snap.CreditStallCycles, n.TotalCreditStallCycles())
	}
}
