package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"stashsim/internal/metrics"
	"stashsim/internal/telemetry"
)

// runJSON builds and runs the spec and returns the summary marshalled
// exactly as the -json flag would emit it.
func runJSON(t *testing.T, sp simSpec) []byte {
	t.Helper()
	n, err := sp.build()
	if err != nil {
		t.Fatal(err)
	}
	return marshalSummary(t, sp.run(n))
}

// marshalSummary renders a summary exactly as the -json flag would.
func marshalSummary(t *testing.T, s *runSummary) []byte {
	t.Helper()
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunIsDeterministic runs the same spec twice and requires the -json
// summaries to be byte-identical. This is the end-to-end guard behind the
// determinism analyzer: any map-order, wall-clock, or global-rand
// dependence in the simulation path shows up here as a diff.
func TestRunIsDeterministic(t *testing.T) {
	specs := map[string]simSpec{
		"e2e-uniform": {
			Preset: "tiny", Mode: "e2e", CapFrac: 1.0,
			Load: 0.4, MsgPkts: 1,
			Cycles: 3000, Warmup: 500, Seed: 42,
			Invariants: true, InvariantsEvery: 64,
		},
		"congestion-hotspot": {
			Preset: "tiny", Mode: "congestion", CapFrac: 1.0,
			Load: 0.3, MsgPkts: 2, Hotspots: 2,
			Cycles: 3000, Warmup: 500, Seed: 7,
		},
		"baseline-errors-off": {
			Preset: "tiny", Mode: "baseline", CapFrac: 1.0,
			Load: 0.5, MsgPkts: 1,
			Cycles: 2000, Warmup: 200, Seed: 1,
		},
		"e2e-faulted-drain": {
			Preset: "tiny", Mode: "e2e", CapFrac: 1.0,
			Load: 0.3, MsgPkts: 1,
			Cycles: 3000, Warmup: 500, Seed: 9,
			DropRate: 2e-3, CorruptRate: 1e-3, FaultSeed: 5,
			Drain:      400000,
			Invariants: true, InvariantsEvery: 64,
		},
	}
	for name, sp := range specs {
		t.Run(name, func(t *testing.T) {
			a := runJSON(t, sp)
			b := runJSON(t, sp)
			if !bytes.Equal(a, b) {
				t.Fatalf("same seed produced different summaries:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
			}
		})
	}
}

// TestWorkersDeterminism asserts that -workers never changes results: the
// -json summary from a one-partition run must be byte-identical to every
// parallel run of the same spec — 2 and 4 workers at full lookahead, 12
// workers (more than tiny's 9 groups, so switch blocks with local links
// crossing), and 4 workers with a flight recorder attached, which clamps
// every epoch to one cycle — for the stashing, fault-injection,
// parity-reconstruction, and ECN (congestion) configurations. This is the
// user-visible contract behind the executor's sharded-collector /
// fixed-merge-order design and its serial-event clamping.
func TestWorkersDeterminism(t *testing.T) {
	specs := map[string]simSpec{
		"stashing-e2e": {
			Preset: "tiny", Mode: "e2e", CapFrac: 1.0,
			Load: 0.35, MsgPkts: 1,
			Cycles: 4000, Warmup: 500, Seed: 21,
			Invariants: true, InvariantsEvery: 64,
		},
		"faulted-drain": {
			Preset: "tiny", Mode: "e2e", CapFrac: 1.0,
			Load: 0.2, MsgPkts: 1,
			Cycles: 4000, Warmup: 0, Seed: 13,
			DropRate: 2e-3, CorruptRate: 1e-3, FaultSeed: 5,
			Drain: 400000,
		},
		"parity-recon": {
			Preset: "tiny", Mode: "e2e", CapFrac: 1.0,
			Load: 0.25, MsgPkts: 1,
			Cycles: 4000, Warmup: 0, Seed: 9,
			DropRate: 4e-3, FaultSeed: 3,
			StashFails: "0.0@1500,0.1@2000,1.0@2500", StashParity: 4,
			Drain: 400000,
		},
		"ecn-congestion": {
			Preset: "tiny", Mode: "congestion", CapFrac: 1.0,
			Load: 0.4, MsgPkts: 2, Hotspots: 2, ECN: true,
			Cycles: 4000, Warmup: 500, Seed: 8,
		},
	}
	for name, sp := range specs {
		t.Run(name, func(t *testing.T) {
			serial := sp
			serial.Workers = 1
			want := runJSON(t, serial)
			for _, pt := range []struct {
				workers  int
				perCycle bool
			}{{2, false}, {4, false}, {12, false}, {4, true}} {
				parallel := sp
				parallel.Workers = pt.workers
				n, err := parallel.build()
				if err != nil {
					t.Fatal(err)
				}
				if pt.perCycle {
					n.AttachFlight(16)
				}
				got := marshalSummary(t, parallel.run(n))
				if !bytes.Equal(want, got) {
					t.Fatalf("workers=%d per-cycle=%v summary differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
						pt.workers, pt.perCycle, want, got)
				}
			}
		})
	}
}

// TestBadModeRejected exercises the config error path.
func TestBadModeRejected(t *testing.T) {
	sp := simSpec{Preset: "tiny", Mode: "turbo"}
	if _, err := sp.build(); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestBadPresetRejected guards against typos silently running the
// default (small) preset.
func TestBadPresetRejected(t *testing.T) {
	sp := simSpec{Preset: "med1um", Mode: "e2e"}
	if _, err := sp.build(); err == nil {
		t.Fatal("unknown preset accepted")
	}
	for _, ok := range []string{"", "tiny", "small", "paper"} {
		sp := simSpec{Preset: ok, Mode: "baseline"}
		if _, err := sp.build(); err != nil {
			t.Fatalf("preset %q rejected: %v", ok, err)
		}
	}
}

// TestObservabilityNeutralDeterminism mirrors the -serve/-profile-exec
// wiring: a run with the profiler, flight recorder, telemetry publisher
// and live HTTP server all attached must produce a -json summary
// byte-identical to a bare serial run of the same spec.
func TestObservabilityNeutralDeterminism(t *testing.T) {
	sp := simSpec{
		Preset: "tiny", Mode: "e2e", CapFrac: 1.0,
		Load: 0.35, MsgPkts: 1,
		Cycles: 3000, Warmup: 500, Seed: 21,
	}
	bare := runJSON(t, sp)

	wiredSpec := sp
	wiredSpec.Workers = 2
	n, err := wiredSpec.build()
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	reg := metrics.NewRegistry()
	n.EnableMetrics(reg)
	n.SetWorkers(wiredSpec.Workers)
	n.EnableExecProfile(128)
	n.AttachFlight(1024)
	pub := n.AttachTelemetry(64)
	srv := &telemetry.Server{Registry: reg, Publisher: pub}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The summary's metrics map is populated by main only when -metrics is
	// set, so the structs compare cleanly here.
	wired := marshalSummary(t, wiredSpec.run(n))
	if !bytes.Equal(bare, wired) {
		t.Fatalf("observability wiring changed the summary:\n--- bare ---\n%s\n--- wired ---\n%s", bare, wired)
	}
}
