// Command stashsim runs a single network simulation with configurable
// topology, stashing mode, and synthetic workload, printing a summary.
//
// Examples:
//
//	stashsim -preset small -mode e2e -load 0.5 -cycles 50000
//	stashsim -preset paper -mode congestion -load 0.4 -hotspots 12 -cycles 130000
//	stashsim -p 3 -a 7 -h 3 -mode baseline -load 0.8
//	stashsim -preset tiny -mode e2e -metrics -trace trace.jsonl -sample-every 1000 -json
//
// Observability: -metrics prints the switch-level metric registry,
// -trace/-trace-chrome export the packet-lifecycle ring buffer as JSONL
// and Chrome trace_event JSON, -sample-every writes fixed-interval
// occupancy samples as CSV, -watchdog dumps non-idle switch state on
// zero-delivery windows, -invariants audits the conservation laws during
// the run, and -json emits a machine-readable run summary on stdout
// (human-readable output moves to stderr).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"stashsim/internal/core"
	"stashsim/internal/metrics"
	"stashsim/internal/sim"
	"stashsim/internal/telemetry"
)

// runSummary is the -json output schema.
type runSummary struct {
	Network  string  `json:"network"`
	Mode     string  `json:"mode"`
	Seed     uint64  `json:"seed"`
	Cycles   int64   `json:"cycles"`
	Warmup   int64   `json:"warmup"`
	Offered  float64 `json:"offered"`
	Accepted float64 `json:"accepted"`

	Latency struct {
		MeanNS  float64 `json:"mean_ns"`
		P50NS   float64 `json:"p50_ns"`
		P90NS   float64 `json:"p90_ns"`
		P99NS   float64 `json:"p99_ns"`
		MaxNS   float64 `json:"max_ns"`
		Packets int64   `json:"packets"`
	} `json:"latency"`

	Counters      core.Counters     `json:"counters"`
	StashResident int               `json:"stash_resident_flits"`
	Fault         *faultSummary     `json:"fault,omitempty"`
	Metrics       map[string]int64  `json:"metrics,omitempty"`
	TraceEvents   int               `json:"trace_events,omitempty"`
	TraceDropped  int64             `json:"trace_dropped,omitempty"`
	WatchdogStall int64             `json:"watchdog_stalls"`
	ExecProfile   *sim.ExecReport   `json:"exec_profile,omitempty"`
	Artifacts     map[string]string `json:"artifacts,omitempty"`
}

// faultSummary is the fault-injection and recovery section of the -json
// output, present whenever a fault plan or the recovery timers are active.
type faultSummary struct {
	PktsDropped          int64   `json:"pkts_dropped"`
	FlitsDropped         int64   `json:"flits_dropped"`
	OutagePkts           int64   `json:"outage_pkts"`
	FlitsCorrupted       int64   `json:"flits_corrupted"`
	StashCopiesLost      int64   `json:"stash_copies_lost"`
	InjectedPkts         int64   `json:"injected_pkts"`
	DeliveredUnique      int64   `json:"delivered_unique"`
	DuplicatesSuppressed int64   `json:"duplicates_suppressed"`
	Abandoned            int64   `json:"abandoned"`
	StashResends         int64   `json:"stash_resends"`
	EndpointResends      int64   `json:"endpoint_resends"`
	CorruptPkts          int64   `json:"corrupt_pkts"`
	RecoveredPkts        int64   `json:"recovered_pkts"`
	RecoveryMeanNS       float64 `json:"recovery_mean_ns"`
	StashReconstructed   int64   `json:"stash_copies_reconstructed"`
	StashReconFailed     int64   `json:"stash_recon_failed"`
	Drained              bool    `json:"drained"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	var sp simSpec
	flag.StringVar(&sp.Preset, "preset", "small", "base preset: tiny, small, paper (overridden by -p/-a/-h)")
	flag.IntVar(&sp.P, "p", 0, "endpoints per switch (custom topology)")
	flag.IntVar(&sp.A, "a", 0, "switches per group (custom topology)")
	flag.IntVar(&sp.H, "h", 0, "global links per switch (custom topology)")
	flag.StringVar(&sp.Mode, "mode", "baseline", "switch mode: baseline, e2e, congestion")
	flag.Float64Var(&sp.CapFrac, "cap", 1.0, "stash capacity fraction (1.0, 0.5, 0.25)")
	flag.Float64Var(&sp.Load, "load", 0.5, "offered load as a fraction of channel capacity")
	flag.IntVar(&sp.MsgPkts, "burst", 1, "message size in packets")
	flag.IntVar(&sp.Hotspots, "hotspots", 0, "number of 4:1 hotspot aggressors (enables victim/aggressor classes)")
	flag.Int64Var(&sp.Cycles, "cycles", 50000, "measured cycles (after warmup)")
	flag.Int64Var(&sp.Warmup, "warmup", 10000, "warmup cycles")
	flag.Uint64Var(&sp.Seed, "seed", 1, "random seed")
	flag.BoolVar(&sp.ECN, "ecn", false, "enable ECN (implied by -mode congestion)")
	flag.BoolVar(&sp.Banks, "banks", false, "model two-bank port memory conflicts")
	flag.Float64Var(&sp.ErrRate, "errors", 0, "per-packet NACK probability (e2e retransmission)")
	flag.BoolVar(&sp.Invariants, "invariants", false, "audit runtime conservation invariants during the run")
	flag.Int64Var(&sp.InvariantsEvery, "invariants-every", 64, "invariant audit interval in cycles")
	flag.StringVar(&sp.FaultPlanPath, "fault-plan", "", "JSON fault plan file (see internal/fault); flags below layer on top")
	flag.Uint64Var(&sp.FaultSeed, "fault-seed", 0, "fault RNG seed (overrides the plan's)")
	flag.Float64Var(&sp.DropRate, "link-drop-rate", 0, "per-packet Bernoulli drop probability on every link")
	flag.Float64Var(&sp.CorruptRate, "corrupt-rate", 0, "per-flit payload-corruption probability (caught by checksums)")
	flag.StringVar(&sp.Outages, "link-outage", "", "outage windows, comma-separated link@start-end (e.g. sw0.3->sw1.2@1000-3000)")
	flag.StringVar(&sp.StashFails, "stash-fail", "", "stash-bank failures, comma-separated switch.port@cycle (e.g. 0.1@5000)")
	flag.BoolVar(&sp.Retrans, "retrans", false, "enable recovery timers (auto-enabled when a plan drops packets in e2e mode)")
	flag.BoolVar(&sp.StashBypass, "stash-bypass", false, "forward packets uncovered when the stash is full instead of stalling (endpoint timers recover)")
	flag.IntVar(&sp.StashParity, "stash-parity", 0, "erasure-code stash copies into XOR parity groups of this width (0 = off; e2e mode only)")
	flag.Int64Var(&sp.Drain, "drain", 0, "after the measured window, run up to this many unloaded cycles until every packet settles")
	flag.IntVar(&sp.Workers, "workers", runtime.GOMAXPROCS(0), "cycle-level worker goroutines stepping the network (1 = serial; results are identical either way)")
	checkpointSpec := flag.String("checkpoint", "", "write a bit-exact checkpoint as file@cycle (absolute cycle; warmup counts); resuming from it with -restore reproduces the straight-through run byte for byte")
	flag.StringVar(&sp.RestorePath, "restore", "", "resume from a checkpoint file; the other flags must rebuild the identical configuration and observers")
	assertDelivery := flag.Bool("assert-delivery", false, "with -drain, exit nonzero unless every injected packet delivered exactly once")

	enableMetrics := flag.Bool("metrics", false, "enable the switch metrics registry and print it")
	metricsFull := flag.Bool("metrics-full", false, "with -metrics, print every per-switch/per-tile scope instead of totals")
	traceOut := flag.String("trace", "", "write the packet-lifecycle trace as JSONL to this file")
	traceChrome := flag.String("trace-chrome", "", "write the packet-lifecycle trace as Chrome trace_event JSON to this file")
	traceCap := flag.Int("trace-cap", 1<<16, "lifecycle tracer ring capacity in events")
	sampleEvery := flag.Int64("sample-every", 0, "occupancy sampling interval in cycles (0 = off)")
	sampleOut := flag.String("sample-out", "occupancy.csv", "occupancy sample CSV output file (with -sample-every)")
	watchdog := flag.Int64("watchdog", 0, "zero-delivery stall window in cycles (0 = off); dumps non-idle switch state")
	profileExec := flag.Bool("profile-exec", false, "profile the cycle executor (per-worker phase/barrier timing); prints a report and adds exec_profile to -json")
	serveAddr := flag.String("serve", "", "serve live telemetry on this address (/metrics, /snapshot, /healthz, /debug/pprof), e.g. :9100")
	flightRows := flag.Int("flight", 0, "flight recorder ring size in cycles (0 = off; auto 4096 with -serve or -watchdog); dumped on stalls and SIGQUIT")
	jsonOut := flag.Bool("json", false, "emit a machine-readable run summary as JSON on stdout")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *checkpointSpec != "" {
		i := strings.LastIndex(*checkpointSpec, "@")
		if i <= 0 {
			fatalf("-checkpoint wants file@cycle, got %q", *checkpointSpec)
		}
		at, err := strconv.ParseInt((*checkpointSpec)[i+1:], 10, 64)
		if err != nil || at < 0 {
			fatalf("-checkpoint wants file@cycle with a non-negative cycle, got %q", *checkpointSpec)
		}
		if at >= sp.Warmup+sp.Cycles {
			fatalf("-checkpoint cycle %d is past the end of the run (warmup %d + cycles %d); the drain window is not checkpointable",
				at, sp.Warmup, sp.Cycles)
		}
		sp.CheckpointPath = (*checkpointSpec)[:i]
		sp.CheckpointAt = at
	}

	// With -json, stdout carries exactly one JSON document; everything
	// human-readable moves to stderr.
	var out io.Writer = os.Stdout
	if *jsonOut {
		out = os.Stderr
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	n, err := sp.build()
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintln(out, n.Describe())

	var reg *metrics.Registry
	if *enableMetrics {
		reg = metrics.NewRegistry()
		n.EnableMetrics(reg)
	}
	var tracer *metrics.Tracer
	if *traceOut != "" || *traceChrome != "" {
		tracer = metrics.NewTracer(*traceCap)
		n.EnableTracing(tracer)
	}
	if *sampleEvery > 0 {
		n.AttachSampler(*sampleEvery)
	}
	if *watchdog > 0 {
		n.AttachWatchdog(*watchdog, os.Stderr)
	}

	// Observability extras. None of these mutate simulation state, so
	// -json output stays byte-identical with or without them (enforced by
	// TestServeDeterminism). The profiler must attach after SetWorkers so
	// its lane count matches the executor's.
	if sp.Workers > 1 {
		n.SetWorkers(sp.Workers)
	}
	defer n.Close()
	var prof *sim.ExecProfiler
	if *profileExec {
		ring := 0
		if *traceChrome != "" {
			ring = 4096 // retain raw lane timings for the Chrome executor lanes
		}
		prof = n.EnableExecProfile(ring)
	}
	rows := *flightRows
	if rows == 0 && (*serveAddr != "" || *watchdog > 0) {
		rows = 4096
	}
	if rows > 0 {
		n.AttachFlight(rows)
		stopDumps := telemetry.NotifyDumps(os.Stderr, func(w io.Writer) {
			fmt.Fprintf(w, "--- SIGQUIT dump at cycle %d ---\n", n.CyclesDone())
			n.Flight.Dump(w, 64)
			n.DumpNonIdle(w)
		})
		defer stopDumps()
	}
	var pub *telemetry.Publisher
	var tsrv *telemetry.Server
	if *serveAddr != "" {
		pub = n.AttachTelemetry(64)
		tsrv = &telemetry.Server{Registry: reg, Publisher: pub, Watchdog: n.Watchdog}
		addr, err := tsrv.Start(*serveAddr)
		if err != nil {
			fatalf("%v", err)
		}
		defer tsrv.Close()
		fmt.Fprintf(out, "telemetry: http://%s (/metrics /snapshot /healthz /debug/pprof)\n", addr)
	}

	s := sp.run(n)
	pub.Publish() // final snapshot so late scrapes see the end-of-run state

	artifacts := map[string]string{}
	cfg := n.Cfg
	fmt.Fprintf(out, "measured %d cycles (%.1f us)\n", sp.Cycles, float64(sp.Cycles)/1300)
	fmt.Fprintf(out, "offered  %.3f  accepted %.3f (fraction of capacity)\n", s.Offered, s.Accepted)
	fmt.Fprintf(out, "latency  mean %.0f ns  p50 %.0f  p90 %.0f  p99 %.0f  max %.0f ns (%d packets)\n",
		s.Latency.MeanNS, s.Latency.P50NS, s.Latency.P90NS, s.Latency.P99NS,
		s.Latency.MaxNS, s.Latency.Packets)
	c := s.Counters
	fmt.Fprintf(out, "switching: %d flits, %d sent; stash: %d stored / %d retrieved / %d resident\n",
		c.FlitsSwitched, c.FlitsSent, c.StashStores, c.StashRetrieves, s.StashResident)
	if cfg.ECN.Enabled {
		fmt.Fprintf(out, "ECN: %d marks, %d window shrinks, %d congested port-cycles\n",
			c.ECNMarks, n.Collector().WindowShrinks, c.CongestedCycles)
	}
	if cfg.Mode == core.StashE2E {
		fmt.Fprintf(out, "e2e: %d tracked, %d deleted, %d retransmits, %d sideband msgs\n",
			c.E2ETracked, c.E2EDeletes, c.E2ERetransmits, c.SidebandMsgs)
	}
	if cfg.BankModel {
		var bc int64
		for _, sw := range n.Switches {
			bc += sw.BankConflicts()
		}
		fmt.Fprintf(out, "bank conflicts: %d\n", bc)
	}
	if n.Invariants != nil {
		fmt.Fprintf(out, "invariants: %d audits, all laws held\n", n.Invariants.Checks)
	}
	if s.Fault != nil {
		fs := s.Fault
		fmt.Fprintf(out, "faults: %d pkts dropped (%d by outage), %d flits corrupted, %d stash copies lost\n",
			fs.PktsDropped, fs.OutagePkts, fs.FlitsCorrupted, fs.StashCopiesLost)
		fmt.Fprintf(out, "recovery: %d stash resends, %d endpoint resends, %d dups suppressed, %d abandoned; %d/%d delivered",
			fs.StashResends, fs.EndpointResends, fs.DuplicatesSuppressed, fs.Abandoned,
			fs.DeliveredUnique, fs.InjectedPkts)
		if fs.RecoveredPkts > 0 {
			fmt.Fprintf(out, "; recovered pkt latency mean %.0f ns", fs.RecoveryMeanNS)
		}
		fmt.Fprintln(out)
		if cfg.StashParity > 0 {
			fmt.Fprintf(out, "parity: %d groups sealed, %d copies reconstructed, %d lost past parity, %d degraded reads\n",
				s.Counters.ParityGroupsSealed, fs.StashReconstructed, fs.StashReconFailed, s.Counters.StashDegradedReads)
		}
		if sp.Drain > 0 && !fs.Drained {
			fmt.Fprintf(out, "warning: network did not drain within %d cycles\n", sp.Drain)
		}
	}

	if reg != nil {
		if *metricsFull {
			fmt.Fprintf(out, "\nmetrics (all scopes):\n%s", reg.Table())
		} else {
			fmt.Fprintf(out, "\nmetrics (totals across switches):\n%s", reg.TotalsTable())
		}
	}
	if tracer != nil {
		if *traceOut != "" {
			if err := writeFileWith(*traceOut, tracer.WriteJSONL); err != nil {
				fatalf("trace: %v", err)
			}
			artifacts["trace_jsonl"] = *traceOut
			fmt.Fprintf(out, "trace: %d events (%d dropped) -> %s\n", tracer.Len(), tracer.Dropped(), *traceOut)
		}
		if *traceChrome != "" {
			// With -profile-exec, the executor's worker/phase lanes ride
			// along in the same trace file (pid 2).
			err := writeFileWith(*traceChrome, func(w io.Writer) error {
				if prof != nil {
					return tracer.WriteChromeTraceWith(w, prof.ChromeEvents)
				}
				return tracer.WriteChromeTrace(w)
			})
			if err != nil {
				fatalf("trace-chrome: %v", err)
			}
			artifacts["trace_chrome"] = *traceChrome
			fmt.Fprintf(out, "chrome trace: %d events -> %s (open in chrome://tracing or Perfetto)\n",
				tracer.Len(), *traceChrome)
		}
	}
	if n.Sampler != nil {
		if err := os.WriteFile(*sampleOut, []byte(n.Sampler.CSV()), 0o644); err != nil {
			fatalf("sample-out: %v", err)
		}
		artifacts["occupancy_csv"] = *sampleOut
		fmt.Fprintf(out, "occupancy samples (every %d cycles) -> %s\n", *sampleEvery, *sampleOut)
	}
	if n.Watchdog != nil && n.Watchdog.Stalls > 0 {
		fmt.Fprintf(out, "watchdog: %d zero-delivery window(s) detected\n", n.Watchdog.Stalls)
	}
	if n.Watchdog != nil && n.Watchdog.Suppressed > 0 {
		fmt.Fprintf(out, "watchdog: %d zero-delivery window(s) explained by fault outages\n", n.Watchdog.Suppressed)
	}
	if prof != nil {
		fmt.Fprintf(out, "\n%s", prof.Report().Text())
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatalf("memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("memprofile: %v", err)
		}
		f.Close()
		artifacts["memprofile"] = *memprofile
	}
	if *cpuprofile != "" {
		artifacts["cpuprofile"] = *cpuprofile
	}

	if *jsonOut {
		if reg != nil {
			s.Metrics = map[string]int64{}
			names, values := reg.Totals()
			for i, name := range names {
				s.Metrics[name] = values[i]
			}
		}
		if tracer != nil {
			s.TraceEvents = tracer.Len()
			s.TraceDropped = tracer.Dropped()
		}
		if n.Watchdog != nil {
			s.WatchdogStall = n.Watchdog.Stalls
		}
		if prof != nil {
			s.ExecProfile = prof.Report()
		}
		if len(artifacts) > 0 {
			s.Artifacts = artifacts
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			fatalf("json: %v", err)
		}
	}

	if *assertDelivery {
		if err := sp.checkDelivery(s); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(out, "assert-delivery: all %d packets delivered exactly once\n", s.Fault.InjectedPkts)
	}
}

// checkDelivery is -assert-delivery: after the drain, every injected
// packet must have been delivered exactly once.
func (sp *simSpec) checkDelivery(s *runSummary) error {
	if sp.Drain <= 0 {
		return fmt.Errorf("-assert-delivery requires -drain (in-flight packets would fail the check)")
	}
	fs := s.Fault
	if fs == nil {
		return fmt.Errorf("-assert-delivery requires fault injection or -retrans")
	}
	if !fs.Drained {
		return fmt.Errorf("assert-delivery: network did not drain within %d cycles", sp.Drain)
	}
	if fs.DeliveredUnique != fs.InjectedPkts || fs.Abandoned != 0 {
		return fmt.Errorf("assert-delivery: injected %d, delivered %d, abandoned %d — not exactly-once",
			fs.InjectedPkts, fs.DeliveredUnique, fs.Abandoned)
	}
	return nil
}

// writeFileWith streams a writer-consuming export into a file.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
