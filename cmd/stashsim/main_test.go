package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
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
	return marshalSummary(t, runSpec(t, &sp, n))
}

// runSpec warms and runs a built network the way main does.
func runSpec(t *testing.T, sp *harness.Spec, n *network.Network) *harness.Summary {
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
			Fault:      &fault.Plan{Seed: 5, LinkDropRate: 2e-3, CorruptRate: 1e-3},
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
			Fault: &fault.Plan{Seed: 5, LinkDropRate: 2e-3, CorruptRate: 1e-3},
			Drain: 400000,
		},
		"parity-recon": {
			Preset: "tiny", Mode: "e2e", CapFrac: 1.0,
			Load: 0.25, MsgPkts: 1,
			Cycles: 4000, Warmup: 0, Seed: 9,
			Fault: &fault.Plan{Seed: 3, LinkDropRate: 4e-3, StashFailures: []fault.StashFail{
				{Switch: 0, Port: 0, At: 1500}, {Switch: 0, Port: 1, At: 2000}, {Switch: 1, Port: 0, At: 2500}}},
			StashParity: 4,
			Drain:       400000,
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
					if _, stop, err = (&cliOpts{stallWindow: 50000, serve: "127.0.0.1:0"}).observe(n, io.Discard); err != nil {
						t.Fatal(err)
					}
				}
				got := marshalSummary(t, runSpec(t, &parallel, n))
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
	runSpec(t, &sp, n)
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
	o := &cliOpts{stallWindow: 50000}
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
	runSpec(t, &sp, n)
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
	if count != 33 {
		t.Fatalf("stashsim declares %d flags, want 33", count)
	}
	// -trace picks its format by the file name, and -sample is the whole
	// sampler: a file, at the flight recorder's 64 cycles.
	for _, c := range []struct {
		args          []string
		trace, sample string
		chrome        bool
	}{
		{[]string{"-trace", "x.json"}, "x.json", "", true},
		{[]string{"-trace", "x.jsonl"}, "x.jsonl", "", false},
		{[]string{"-trace", "x.json.gz"}, "x.json.gz", "", false},
		{[]string{"-sample", "occ.csv"}, "", "occ.csv", false},
	} {
		o := new(cliOpts)
		fs := flag.NewFlagSet("stashsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		defineFlags(fs, &sp, o)
		if err := fs.Parse(c.args); err != nil || o.trace != c.trace || o.sample != c.sample || chromeTrace(o.trace) != c.chrome {
			t.Fatalf("%v: trace %q (chrome %v) sample %q, err %v", c.args, o.trace, chromeTrace(o.trace), o.sample, err)
		}
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

// TestFaultFlagsPlan: -fault-plan is the one fault input, and it means
// here what it means on cmd/figures, whose test of the same name expects
// the same plans from the same spellings. Without it a spec has no plan and
// -seed does not reach one; with it the file loads whole; a file that holds
// no valid plan, and the per-field fault flags the plan replaced, are usage
// errors.
func TestFaultFlagsPlan(t *testing.T) {
	dir := t.TempDir()
	file := func(body string) string {
		f, err := os.CreateTemp(dir, "plan*.json")
		if err == nil {
			_, err = f.WriteString(body)
			f.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		return f.Name()
	}
	good := file(`{"seed": 9, "link_drop_rate": 0.5, "corrupt_rate": 1e-4,
		"outages": [{"link": "ep5->sw1.0", "start": 500, "end": 900}],
		"stash_failures": [{"switch": 1, "port": 1, "at": 10}]}`)
	for _, c := range []struct {
		args []string
		want *fault.Plan
	}{
		{nil, nil},
		{[]string{"-seed", "7", "-stash-parity", "4"}, nil},
		{[]string{"-seed", "7", "-fault-plan", good}, &fault.Plan{Seed: 9, LinkDropRate: 0.5, CorruptRate: 1e-4,
			Outages:       []fault.Outage{{Link: "ep5->sw1.0", Start: 500, End: 900}},
			StashFailures: []fault.StashFail{{Switch: 1, Port: 1, At: 10}}}},
	} {
		var sp harness.Spec
		fs := flag.NewFlagSet("stashsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		defineFlags(fs, &sp, new(cliOpts))
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if !reflect.DeepEqual(sp.Fault, c.want) {
			t.Errorf("%v: plan %+v, want %+v", c.args, sp.Fault, c.want)
		}
	}
	for _, args := range [][]string{
		{"-fault-plan", filepath.Join(dir, "missing.json")},
		{"-fault-plan", file(`{"seed": 1}{"link_drop_rate": 1}`)},
		{"-fault-plan", file(`{"link_drop_rate": 2}`)},
		{"-fault-seed", "3"},
		{"-corrupt-rate", "1e-4"},
		{"-link-drop-rate", "1e-3"},
		{"-link-outage", "sw0.3->sw1.2@1000-3000"},
		{"-stash-fail", "0.1@5000"},
	} {
		fs := flag.NewFlagSet("stashsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		defineFlags(fs, new(harness.Spec), new(cliOpts))
		if err := fs.Parse(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	// A plan that injects nothing leaves the network fault-free and the
	// recovery timers off.
	sp := harness.Spec{Preset: "tiny", Mode: "e2e", CapFrac: 1, Fault: &fault.Plan{Seed: 4}}
	if cfg, err := sp.Config(); err != nil || cfg.Fault != nil || cfg.Retrans.Enabled {
		t.Errorf("inactive plan: fault %+v, timers %v, err %v", cfg.Fault, cfg.Retrans.Enabled, err)
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
	n.Observe(network.NewFlightRecorder(n, 1024))
	pub := telemetry.NewPublisher(n.TelemetrySnapshot, 64)
	n.Observe(pub)
	srv := &telemetry.Server{Publisher: pub}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The summary's metrics map is populated by main only when -metrics is
	// set, so the structs compare cleanly here.
	wired := marshalSummary(t, runSpec(t, &wiredSpec, n))
	if !bytes.Equal(bare, wired) {
		t.Fatalf("observability wiring changed the summary:\n--- bare ---\n%s\n--- wired ---\n%s", bare, wired)
	}
}

// parseRun parses a command line with the real flag set and runs it the way
// main does, its human output discarded.
func parseRun(t *testing.T, args string) error {
	t.Helper()
	var sp harness.Spec
	o := new(cliOpts)
	fs := flag.NewFlagSet("stashsim", flag.ContinueOnError)
	defineFlags(fs, &sp, o)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatal(err)
	}
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	defer func(old *os.File) { os.Stdout = old }(os.Stdout)
	os.Stdout = devNull
	return run(&sp, o)
}

// TestTraceAndSampleFiles: -trace writes one Chrome trace_event document
// to a name ending in .json and one JSON event per line to any other, and
// -sample writes a CSV row every 64 cycles.
func TestTraceAndSampleFiles(t *testing.T) {
	dir := t.TempDir()
	sample := filepath.Join(dir, "occ.csv")
	for _, name := range []string{"t.json", "t.jsonl"} {
		trace := filepath.Join(dir, name)
		if err := parseRun(t, "-preset tiny -mode e2e -load 0.3 -cycles 600 -warmup 100 -workers 1 -trace "+trace+" -sample "+sample); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if chromeTrace(name) != json.Valid(b) || len(lines) < 10 {
			t.Fatalf("%s: one JSON document %v, %d lines", name, json.Valid(b), len(lines))
		}
		for i, line := range lines {
			if !chromeTrace(name) && !json.Valid([]byte(line)) {
				t.Fatalf("%s line %d is not one JSON event: %s", name, i, line)
			}
		}
	}
	b, err := os.ReadFile(sample)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(rows) != 1+700/64+1 || !strings.HasPrefix(rows[0], "cycle,stash.fill,") {
		t.Fatalf("occupancy CSV has %d lines, header %q; want a row per 64 of 700 cycles", len(rows), rows[0])
	}
	for i, row := range rows[1:] {
		if cycle, _, _ := strings.Cut(row, ","); cycle != strconv.Itoa(64*i) {
			t.Fatalf("row %d is cycle %s, want %d", i, cycle, 64*i)
		}
	}
}

// TestFailingRunKeepsProfile re-executes the test binary as stashsim with a
// flag set that fails after the CPU profile has started (a -trace file in a
// directory that does not exist, written once the run is over): it must
// exit 1 and still leave a profile pprof can read, a gzip stream, where the
// exit used to skip the deferred stop and leave an empty file.
func TestFailingRunKeepsProfile(t *testing.T) {
	if args := os.Getenv("STASHSIM_ARGS"); args != "" {
		os.Args = append([]string{"stashsim"}, strings.Fields(args)...)
		main()
		return
	}
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.prof")
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailingRunKeepsProfile$")
	cmd.Env = append(os.Environ(), "STASHSIM_ARGS=-preset tiny -mode e2e -cycles 300 -warmup 100 -workers 1 -cpuprofile "+prof+
		" -trace "+filepath.Join(dir, "missing", "t.jsonl"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "trace: open") {
		t.Fatalf("want exit 1 naming the trace file, got %v:\n%s", err, out)
	}
	if b, err := os.ReadFile(prof); err != nil || !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
		t.Fatalf("CPU profile of the failing run: %d bytes (err %v), want a gzip stream", len(b), err)
	}
}
