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
// Observability: -metrics prints the switch-level metric registry
// (-metrics=full every scope of it), -trace/-trace-chrome export the
// packet-lifecycle ring buffer as JSONL and Chrome trace_event JSON,
// -sample-every writes fixed-interval occupancy samples as CSV, -watchdog
// dumps non-idle switch state on zero-delivery windows (and, at the next
// barrier, on SIGQUIT), -invariants audits the conservation laws during
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

	"stashsim/internal/core"
	"stashsim/internal/harness"
	"stashsim/internal/metrics"
	"stashsim/internal/network"
	"stashsim/internal/telemetry"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// cliOpts are the flags that do not determine the simulation's outcome:
// what to observe and where to write it.
type cliOpts struct {
	metrics                string // "", "totals" or "full"
	traceOut, traceChrome  string
	sampleEvery            int64
	sampleOut              string
	watchdog               int64
	profileExec            bool
	serve                  string
	jsonOut                bool
	cpuprofile, memprofile string

	// dumps is the SIGQUIT dump slot observe attached next to the flight
	// recorder, nil without -watchdog or -serve.
	dumps *telemetry.DumpRequest
}

// defineFlags declares every flag, so that TestFlagCount can count them:
// the ten shared with cmd/figures, the rest of the run description, then
// what to observe.
func defineFlags(fs *flag.FlagSet, sp *harness.Spec, o *cliOpts) {
	sp.BindFlags(fs)
	fs.IntVar(&sp.P, "p", 0, "endpoints per switch (custom topology, overrides -preset)")
	fs.IntVar(&sp.A, "a", 0, "switches per group (custom topology)")
	fs.IntVar(&sp.H, "h", 0, "global links per switch (custom topology)")
	fs.StringVar(&sp.Mode, "mode", "baseline", "switch mode: baseline, e2e, congestion")
	fs.Float64Var(&sp.CapFrac, "cap", 1.0, "stash capacity fraction (1.0, 0.5, 0.25)")
	fs.Float64Var(&sp.Load, "load", 0.5, "offered load as a fraction of channel capacity")
	fs.IntVar(&sp.MsgPkts, "burst", 1, "message size in packets")
	fs.IntVar(&sp.Hotspots, "hotspots", 0, "number of 4:1 hotspot aggressors (enables victim/aggressor classes)")
	fs.Int64Var(&sp.Cycles, "cycles", 50000, "measured cycles (after warmup)")
	fs.Int64Var(&sp.Warmup, "warmup", 10000, "warmup cycles")
	fs.BoolVar(&sp.ECN, "ecn", false, "enable ECN (implied by -mode congestion)")
	fs.BoolVar(&sp.Banks, "banks", false, "model two-bank port memory conflicts")
	fs.Float64Var(&sp.ErrRate, "errors", 0, "per-packet NACK probability (e2e retransmission)")
	fs.Uint64Var(&sp.FaultSeed, "fault-seed", 0, "fault RNG seed (overrides the plan's)")
	fs.Float64Var(&sp.CorruptRate, "corrupt-rate", 0, "per-flit payload-corruption probability (caught by checksums)")
	fs.BoolVar(&sp.Retrans, "retrans", false, "enable recovery timers (auto-enabled when a plan drops packets in e2e mode)")
	fs.BoolVar(&sp.StashBypass, "stash-bypass", false, "forward packets uncovered when the stash is full instead of stalling (endpoint timers recover)")
	fs.Int64Var(&sp.Drain, "drain", 0, "after the measured window, run up to this many unloaded cycles until every packet settles")
	fs.IntVar(&sp.Workers, "workers", runtime.GOMAXPROCS(0), "cycle-level worker goroutines stepping the network (1 = serial; results are identical either way)")
	fs.BoolVar(&sp.AssertDelivery, "assert-delivery", false, "with -drain and faults or -retrans, exit nonzero unless every injected packet delivered exactly once")

	fs.BoolFunc("metrics", "print the switch metrics registry, totals across switches, or with -metrics=full every per-switch/per-tile scope; -json gains a metrics block", func(s string) error {
		switch s {
		case "true":
			o.metrics = "totals"
		case "full":
			o.metrics = "full"
		case "false":
			o.metrics = ""
		default:
			return fmt.Errorf("want -metrics or -metrics=full")
		}
		return nil
	})
	fs.StringVar(&o.traceOut, "trace", "", "write the packet-lifecycle trace (a ring of the last 65536 events recorded, exported in time order) as JSONL to this file")
	fs.StringVar(&o.traceChrome, "trace-chrome", "", "write the packet-lifecycle trace as Chrome trace_event JSON to this file")
	fs.Int64Var(&o.sampleEvery, "sample-every", 0, "occupancy sampling interval in cycles (0 = off)")
	fs.StringVar(&o.sampleOut, "sample-out", "occupancy.csv", "occupancy sample CSV output file (with -sample-every)")
	fs.Int64Var(&o.watchdog, "watchdog", 0, "zero-delivery stall window in cycles (0 = off); dumps the flight recorder (the last 4096 64-cycle intervals) and non-idle switch state, also on SIGQUIT, at the next barrier")
	fs.BoolVar(&o.profileExec, "profile-exec", false, "profile the cycle executor (per-worker phase/barrier timing); prints a report and adds exec_profile to -json")
	fs.StringVar(&o.serve, "serve", "", "serve live telemetry on this address (/metrics, /snapshot, /healthz, /debug/pprof), e.g. :9100, as of the last barrier snapshot; attaches the flight recorder and the SIGQUIT dump, served at the next barrier, like -watchdog")
	fs.BoolVar(&o.jsonOut, "json", false, "emit a machine-readable run summary as JSON on stdout")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file")
}

// observe attaches what the observability flags ask for and returns the
// telemetry publisher (nil without -serve) and what shuts the live server
// and the SIGQUIT handler down. None of it mutates simulation state, so
// -json output stays byte-identical with or without it
// (TestObservabilityNeutralDeterminism, TestWorkersDeterminism), and none
// of it names a cycle the user did not ask for: the flight recorder and
// the publisher share one 64-cycle interval. build has already set the
// worker count, so the profiler sizes its lanes right.
func (o *cliOpts) observe(n *network.Network, out io.Writer) (pub *telemetry.Publisher, stop func(), err error) {
	if o.metrics != "" {
		n.EnableMetrics(metrics.NewRegistry())
	}
	if o.traceOut != "" || o.traceChrome != "" {
		n.EnableTracing(metrics.NewTracer(1 << 16))
	}
	if o.sampleEvery > 0 {
		n.AttachSampler(o.sampleEvery)
	}
	if o.profileExec {
		ring := 0
		if o.traceChrome != "" {
			ring = 4096 // retain raw lane timings for the Chrome executor lanes
		}
		n.EnableExecProfile(ring)
	}
	// The flight recorder is on exactly when something can dump it. It
	// goes on the schedule ahead of the watchdog and the SIGQUIT dump so
	// that a dump carries the interval that ends on its cycle. SIGQUIT only
	// raises a flag: the dump walks live state, so the coordinator writes it
	// at the next barrier (and main, once the run is over, lets requests
	// serve themselves).
	stop = func() {}
	if o.serve != "" || o.watchdog > 0 {
		n.AttachFlight(4096)
		w := os.Stderr
		o.dumps = telemetry.NewDumpRequest(func() {
			fmt.Fprintf(w, "--- SIGQUIT dump at cycle %d ---\n", n.CyclesDone())
			n.Flight.Dump(w, 64)
			n.DumpNonIdle(w)
		})
		n.Observe(o.dumps)
		stop = telemetry.NotifyDumps(o.dumps.Request)
	}
	if o.watchdog > 0 {
		n.AttachWatchdog(o.watchdog, os.Stderr)
	}
	if o.serve != "" {
		pub = n.AttachTelemetry(metrics.FlightInterval)
		srv := &telemetry.Server{Publisher: pub}
		addr, err := srv.Start(o.serve)
		if err != nil {
			stop()
			return nil, nil, err
		}
		fmt.Fprintf(out, "telemetry: http://%s (/metrics /snapshot /healthz /debug/pprof)\n", addr)
		stopDumps := stop
		stop = func() { srv.Close(); stopDumps() }
	}
	return pub, stop, nil
}

func main() {
	var sp harness.Spec
	var o cliOpts
	defineFlags(flag.CommandLine, &sp, &o)
	flag.Parse()

	// With -json, stdout carries exactly one JSON document; everything
	// human-readable moves to stderr.
	var out io.Writer = os.Stdout
	if o.jsonOut {
		out = os.Stderr
	}

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	// Build starts the worker pool and this function alone closes it, after
	// the final snapshot: Close drops to one worker, which would replace
	// the profiler the snapshot reads with an empty one-lane one.
	n, err := sp.Build()
	if err != nil {
		fatalf("%v", err)
	}
	defer n.Close()
	fmt.Fprintln(out, n.Describe())
	pub, stop, err := o.observe(n, out)
	if err != nil {
		fatalf("%v", err)
	}
	defer stop()
	reg, tracer, prof := n.Metrics, n.Tracer, n.Profiler

	if err := sp.Warm(n); err != nil {
		fatalf("%v", err)
	}
	s, runErr := sp.Run(n)
	if s == nil { // a failed -assert-delivery comes with the summary that shows it
		fatalf("%v", runErr)
	}
	pub.Publish()    // final snapshot so late scrapes see the end-of-run state
	o.dumps.Finish() // no more barriers: a SIGQUIT from here on dumps at once

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
	st := n.ExecStats()
	fmt.Fprintf(out, "executor: %d blocks on %d workers, %d epochs, %.1f cycles/sync\n", st.Blocks, st.Workers, st.Epochs, st.CyclesPerSync)
	if st.Workers > 1 {
		s.Exec = &st
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
		if o.metrics == "full" {
			fmt.Fprintf(out, "\nmetrics (all scopes):\n%s", reg.Table())
		} else {
			fmt.Fprintf(out, "\nmetrics (totals across switches):\n%s", reg.TotalsTable())
		}
	}
	if tracer != nil {
		if o.traceOut != "" {
			if err := writeFileWith(o.traceOut, tracer.WriteJSONL); err != nil {
				fatalf("trace: %v", err)
			}
			artifacts["trace_jsonl"] = o.traceOut
			fmt.Fprintf(out, "trace: %d events (%d dropped) -> %s\n", tracer.Len(), tracer.Dropped(), o.traceOut)
		}
		if o.traceChrome != "" {
			// With -profile-exec, the executor's worker/phase lanes ride
			// along in the same trace file (pid 2).
			err := writeFileWith(o.traceChrome, func(w io.Writer) error {
				if prof != nil {
					return tracer.WriteChromeTraceWith(w, prof.ChromeEvents)
				}
				return tracer.WriteChromeTrace(w)
			})
			if err != nil {
				fatalf("trace-chrome: %v", err)
			}
			artifacts["trace_chrome"] = o.traceChrome
			fmt.Fprintf(out, "chrome trace: %d events -> %s (open in chrome://tracing or Perfetto)\n",
				tracer.Len(), o.traceChrome)
		}
	}
	if n.Sampler != nil {
		if err := os.WriteFile(o.sampleOut, []byte(n.Sampler.CSV()), 0o644); err != nil {
			fatalf("sample-out: %v", err)
		}
		artifacts["occupancy_csv"] = o.sampleOut
		fmt.Fprintf(out, "occupancy samples (every %d cycles) -> %s\n", o.sampleEvery, o.sampleOut)
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

	if o.memprofile != "" {
		f, err := os.Create(o.memprofile)
		if err != nil {
			fatalf("memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("memprofile: %v", err)
		}
		f.Close()
		artifacts["memprofile"] = o.memprofile
	}
	if o.cpuprofile != "" {
		artifacts["cpuprofile"] = o.cpuprofile
	}

	if o.jsonOut {
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

	if runErr != nil {
		fatalf("%v", runErr)
	}
	if sp.AssertDelivery {
		fmt.Fprintf(out, "assert-delivery: all %d packets delivered exactly once\n", s.Fault.InjectedPkts)
	}
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
