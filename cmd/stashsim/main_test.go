package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"stashsim/internal/fault"
	"stashsim/internal/harness"
	"stashsim/internal/metrics"
	"stashsim/internal/network"
	"stashsim/internal/telemetry"
)

// runJSON builds and runs the spec and returns the summary marshalled
// exactly as the -json flag would emit it.
func runJSON(t *testing.T, sp harness.Spec) []byte {
	t.Helper()
	n, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	return marshalSummary(t, run(t, &sp, n))
}

// run warms and runs a built network the way main does.
func run(t *testing.T, sp *harness.Spec, n *network.Network) *harness.Summary {
	t.Helper()
	if err := sp.Warm(n); err != nil {
		t.Fatal(err)
	}
	s, err := sp.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// marshalSummary renders a summary exactly as the -json flag would.
func marshalSummary(t *testing.T, s *harness.Summary) []byte {
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
	specs := map[string]harness.Spec{
		"e2e-uniform": {
			Preset: "tiny", Mode: "e2e", CapFrac: 1.0,
			Load: 0.4, MsgPkts: 1,
			Cycles: 3000, Warmup: 500, Seed: 42,
			Invariants: 64,
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
			Invariants: 64,
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
// crossing), 4 workers under -invariants=1, the one schedule that names
// every cycle, and 4 workers under the -watchdog + -serve wiring — for the
// stashing, fault-injection, parity-reconstruction, and ECN (congestion)
// configurations. This is the user-visible contract behind the executor's
// sharded-collector / fixed-merge-order design and its barrier schedule.
// The last two rows also pin what the exec block reports: a barrier every
// cycle only where the user asked for one, and epochs near tiny's 65-cycle
// lookahead (less the 64-cycle observer interval and the run boundaries)
// while a run is being watched.
func TestWorkersDeterminism(t *testing.T) {
	specs := map[string]harness.Spec{
		"stashing-e2e": {
			Preset: "tiny", Mode: "e2e", CapFrac: 1.0,
			Load: 0.35, MsgPkts: 1,
			Cycles: 4000, Warmup: 500, Seed: 21,
			Invariants: 64,
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
				workers          int
				invariants       int64
				watched          bool
				syncMin, syncMax float64 // bounds on exec.cycles_per_sync; 0 = unchecked
			}{
				{workers: 2}, {workers: 4}, {workers: 12},
				{workers: 4, invariants: 1, syncMax: 1},
				{workers: 4, watched: true, syncMin: 40},
			} {
				parallel := sp
				parallel.Workers = pt.workers
				if pt.invariants > 0 {
					parallel.Invariants = pt.invariants
				}
				n, err := parallel.Build()
				if err != nil {
					t.Fatal(err)
				}
				stop := func() {}
				if pt.watched {
					var err error
					if _, stop, err = (&cliOpts{watchdog: 50000, serve: "127.0.0.1:0"}).observe(n, io.Discard); err != nil {
						t.Fatal(err)
					}
				}
				got := marshalSummary(t, run(t, &parallel, n))
				st := n.ExecStats()
				stop()
				n.Close()
				if !bytes.Equal(want, got) {
					t.Fatalf("%+v: summary differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", pt, want, got)
				}
				if c := st.CyclesPerSync; c < pt.syncMin || (pt.syncMax > 0 && c > pt.syncMax) {
					t.Fatalf("%+v: exec block reports %+v", pt, st)
				}
			}
		})
	}
}

// TestFinalSnapshotHasExecProfile is the regression test for the empty
// exec profile in the last /snapshot of a -workers 2 -profile-exec -serve
// run: run used to Close the network on its way out, and Close replaces
// the network-owned profiler with a fresh one-lane one, so the snapshot
// main published afterwards reported zero epochs.
func TestFinalSnapshotHasExecProfile(t *testing.T) {
	sp := harness.Spec{
		Preset: "tiny", Mode: "e2e", CapFrac: 1.0, Load: 0.3, MsgPkts: 1,
		Cycles: 1500, Warmup: 500, Seed: 3, Workers: 2,
	}
	n, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	pub, stop, err := (&cliOpts{profileExec: true, serve: "127.0.0.1:0"}).observe(n, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	run(t, &sp, n)
	pub.Publish()
	rep := pub.Latest().ExecProfile
	if rep == nil || rep.Workers != 2 || rep.Cycles != 2000 || rep.Attribution.Epochs == 0 || rep.WallNS == 0 {
		t.Fatalf("final snapshot's exec profile is empty or resized: %+v", rep)
	}
}

// TestDumpRequestServedAtBarrier drives the SIGQUIT dump through the real
// wiring: the closure the handler calls only raises a flag, and the dump —
// a walk over rings and buffers the workers are writing — is made by the
// coordinator at a barrier. Calling it from a second goroutine while two
// workers step a loaded network is a data race under -race if anything but
// the coordinator does the walk. Before the first run a request waits for
// the first barrier; after Finish it is served on the spot.
func TestDumpRequestServedAtBarrier(t *testing.T) {
	sp := harness.Spec{
		Preset: "tiny", Mode: "e2e", CapFrac: 1.0, Load: 0.3, MsgPkts: 1,
		Cycles: 1500, Warmup: 500, Seed: 3, Workers: 2,
	}
	n, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// The dumps go to the process's stderr; point it at a file to read them.
	errFile, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer errFile.Close()
	defer func(old *os.File) { os.Stderr = old }(os.Stderr)
	os.Stderr = errFile
	o := &cliOpts{watchdog: 50000}
	_, stop, err := o.observe(n, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	dumps := func() []string {
		b, err := os.ReadFile(errFile.Name())
		if err != nil {
			t.Fatal(err)
		}
		var headers []string
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "--- SIGQUIT dump") {
				headers = append(headers, line)
			}
		}
		return headers
	}

	o.dumps.Request()
	if got := dumps(); len(got) != 0 {
		t.Fatalf("a request before any barrier was served at once: %v", got)
	}
	stopAsking, asked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(asked)
		for {
			select {
			case <-stopAsking:
				return
			default:
				o.dumps.Request()
				runtime.Gosched()
			}
		}
	}()
	run(t, &sp, n)
	close(stopAsking)
	<-asked
	served := dumps()
	if len(served) < 2 || served[0] != "--- SIGQUIT dump at cycle 1 ---" {
		t.Fatalf("dumps during the run: %d, first %q; want the early request served after cycle 0 and more after it", len(served), served)
	}

	o.dumps.Finish() // serves what the last requests left owed
	before := len(dumps())
	o.dumps.Request()
	if got := dumps(); len(got) != before+1 || got[before] != "--- SIGQUIT dump at cycle 2000 ---" {
		t.Fatalf("a request after Finish left %d dumps (had %d), last %q; want it served on the spot at cycle 2000", len(got), before, got[len(got)-1])
	}
}

// TestFlagCount pins the size of the flag surface: a new flag has to
// argue its way past this number (simplicity-review, Options).
func TestFlagCount(t *testing.T) {
	var sp harness.Spec
	fs := flag.NewFlagSet("stashsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	defineFlags(fs, &sp, new(cliOpts))
	count := 0
	fs.VisitAll(func(*flag.Flag) { count++ })
	if count != 41 {
		t.Fatalf("stashsim declares %d flags, want 41", count)
	}
	// -invariants is one flag with three forms.
	for _, c := range []struct {
		args []string
		want int64
	}{{nil, 0}, {[]string{"-invariants"}, 64}, {[]string{"-invariants=1"}, 1}, {[]string{"-invariants=false"}, 0}} {
		sp.Invariants = 0
		if err := fs.Parse(c.args); err != nil || sp.Invariants != c.want {
			t.Fatalf("%v: interval %d (err %v), want %d", c.args, sp.Invariants, err, c.want)
		}
	}
	if err := fs.Parse([]string{"-invariants=0"}); err == nil {
		t.Fatal("-invariants=0 accepted; off is -invariants=false or no flag")
	}
	// So is -metrics: the counters are always on, the flag says what to print.
	for _, c := range []struct {
		args []string
		want string
	}{{nil, ""}, {[]string{"-metrics"}, "totals"}, {[]string{"-metrics=full"}, "full"}, {[]string{"-metrics", "-metrics=false"}, ""}} {
		o := new(cliOpts)
		fs := flag.NewFlagSet("stashsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		defineFlags(fs, &sp, o)
		if err := fs.Parse(c.args); err != nil || o.metrics != c.want {
			t.Fatalf("%v: metrics %q (err %v), want %q", c.args, o.metrics, err, c.want)
		}
	}
	if err := fs.Parse([]string{"-metrics=all"}); err == nil {
		t.Fatal("-metrics=all accepted; the forms are -metrics and -metrics=full")
	}
}

// TestFaultFlagsPlan: the fault flags shared with cmd/figures yield the
// plans its test of the same name expects from the same spellings, and the
// two only this CLI has layer on top: -fault-seed overrides the plan's
// seed, -corrupt-rate its rate.
func TestFaultFlagsPlan(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(file, []byte(`{"seed": 9, "link_drop_rate": 0.5,
		"outages": [{"link": "ep5->sw1.0", "start": 500, "end": 900}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	outage := fault.Outage{Link: "sw0.3->sw1.2", Start: 1000, End: 3000}
	for _, c := range []struct {
		args []string
		want *fault.Plan
	}{
		{nil, nil},
		{[]string{"-seed", "7", "-stash-parity", "4"}, nil},
		{[]string{"-seed", "7", "-link-drop-rate", "1e-3"}, &fault.Plan{LinkDropRate: 1e-3}},
		{[]string{"-link-outage", "sw0.3->sw1.2@1000-3000"}, &fault.Plan{Outages: []fault.Outage{outage}}},
		{[]string{"-stash-fail", "0.1@5000,2.0@7"}, &fault.Plan{StashFailures: []fault.StashFail{{Switch: 0, Port: 1, At: 5000}, {Switch: 2, Port: 0, At: 7}}}},
		{[]string{"-fault-plan", file}, &fault.Plan{Seed: 9, LinkDropRate: 0.5,
			Outages: []fault.Outage{{Link: "ep5->sw1.0", Start: 500, End: 900}}}},
		{[]string{"-fault-plan", file, "-link-drop-rate", "0.25", "-link-outage", "sw0.3->sw1.2@1000-3000", "-stash-fail", "1.1@10"},
			&fault.Plan{Seed: 9, LinkDropRate: 0.25,
				Outages:       []fault.Outage{{Link: "ep5->sw1.0", Start: 500, End: 900}, outage},
				StashFailures: []fault.StashFail{{Switch: 1, Port: 1, At: 10}}}},
		{[]string{"-fault-plan", file, "-fault-seed", "3", "-corrupt-rate", "1e-4"}, &fault.Plan{Seed: 3, LinkDropRate: 0.5, CorruptRate: 1e-4,
			Outages: []fault.Outage{{Link: "ep5->sw1.0", Start: 500, End: 900}}}},
		{[]string{"-fault-seed", "3", "-link-drop-rate", "1e-3"}, &fault.Plan{Seed: 3, LinkDropRate: 1e-3}},
	} {
		var sp harness.Spec
		fs := flag.NewFlagSet("stashsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		defineFlags(fs, &sp, new(cliOpts))
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if got, err := sp.FaultPlan(); err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v: plan %+v (err %v), want %+v", c.args, got, err, c.want)
		}
	}
}

// TestBadModeRejected exercises the config error path.
func TestBadModeRejected(t *testing.T) {
	sp := harness.Spec{Preset: "tiny", Mode: "turbo"}
	if _, err := sp.Build(); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestBadBurstRejected: `-burst 0` on the real flag set is an error from
// Build, the call main makes before anything runs — not a panic in the
// first endpoint that generates a message — and so are the four spellings
// that used to panic in a worker goroutine or run to a meaningless summary
// (harness.TestConfigRefuses has the whole table).
func TestBadBurstRejected(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-mode e2e -burst 0", "burst 0"},
		{"-p 1 -a 1 -h 1", "third group"},
		{"-p 30 -a 30 -h 10", "radix 69"},
		{"-mode e2e -cap NaN", "capacity fraction NaN"},
		{"-mode e2e -errors 2", "error rate 2"},
	} {
		var sp harness.Spec
		fs := flag.NewFlagSet("stashsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		defineFlags(fs, &sp, new(cliOpts))
		if err := fs.Parse(strings.Fields("-preset tiny -cycles 300 -warmup 100 " + c.args)); err != nil {
			t.Fatal(err)
		}
		n, err := sp.Build()
		if err == nil {
			n.Close()
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Build err = %v, want a refusal naming %q", c.args, err, c.want)
		}
	}
}

// TestBadPresetRejected guards against typos silently running the
// default (small) preset.
func TestBadPresetRejected(t *testing.T) {
	sp := harness.Spec{Preset: "med1um", Mode: "e2e"}
	if _, err := sp.Build(); err == nil {
		t.Fatal("unknown preset accepted")
	}
	for _, ok := range []string{"", "tiny", "small", "paper"} {
		sp := harness.Spec{Preset: ok, Mode: "baseline"}
		if _, err := sp.Build(); err != nil {
			t.Fatalf("preset %q rejected: %v", ok, err)
		}
	}
}

// TestObservabilityNeutralDeterminism mirrors the -serve/-profile-exec
// wiring: a run with the profiler, flight recorder, telemetry publisher
// and live HTTP server all attached must produce a -json summary
// byte-identical to a bare serial run of the same spec.
func TestObservabilityNeutralDeterminism(t *testing.T) {
	sp := harness.Spec{
		Preset: "tiny", Mode: "e2e", CapFrac: 1.0,
		Load: 0.35, MsgPkts: 1,
		Cycles: 3000, Warmup: 500, Seed: 21,
	}
	bare := runJSON(t, sp)

	wiredSpec := sp
	wiredSpec.Workers = 2
	n, err := wiredSpec.Build()
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
	srv := &telemetry.Server{Publisher: pub}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The summary's metrics map is populated by main only when -metrics is
	// set, so the structs compare cleanly here.
	wired := marshalSummary(t, run(t, &wiredSpec, n))
	if !bytes.Equal(bare, wired) {
		t.Fatalf("observability wiring changed the summary:\n--- bare ---\n%s\n--- wired ---\n%s", bare, wired)
	}
}
