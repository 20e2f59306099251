// Command stashsim runs a single network simulation with configurable
// topology, stashing mode, and synthetic workload, printing a summary.
//
// Examples:
//
//	stashsim -preset small -mode e2e -load 0.5 -cycles 50000
//	stashsim -preset paper -mode congestion -load 0.4 -hotspots 12 -cycles 130000
//	stashsim -p 3 -a 7 -h 3 -mode baseline -load 0.8
//	stashsim -preset tiny -mode e2e -metrics -trace trace.jsonl -sample occupancy.csv -json
//
// Observability: -metrics prints the switch-level metric registry
// (-metrics=full every scope of it), -trace exports the packet-lifecycle
// ring buffer (as Chrome trace_event JSON to a name ending in .json, as
// JSONL to any other), -sample writes occupancy samples every 64 cycles as
// CSV, -watchdog dumps non-idle switch state on zero-delivery windows (and,
// at the next barrier, on SIGQUIT), -invariants audits the conservation
// laws during the run, and -json emits a machine-readable run summary on
// stdout (human-readable output moves to stderr).
//
// Recovery: an active -fault-plan, and -stash-bypass, arms the recovery
// timers; -drain N -assert-delivery then requires exactly-once delivery.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"stashsim/internal/core"
	"stashsim/internal/harness"
	"stashsim/internal/metrics"
	"stashsim/internal/network"
	"stashsim/internal/telemetry"
)

// cliOpts are the flags that do not determine the simulation's outcome:
// what to observe and where to write it.
type cliOpts struct {
	metrics                string // "", "totals" or "full"
	trace, sample          string
	stallWindow            int64
	profileExec            bool
	serve                  string
	jsonOut                bool
	cpuprofile, memprofile string

	// What observe built and the report reads: the sampler (nil without
	// -sample), the watchdog (nil without -watchdog), and the SIGQUIT dump
	// slot next to the flight recorder (nil without -watchdog or -serve).
	sampler  *metrics.Sampler
	watchdog *metrics.Watchdog
	dumps    *telemetry.DumpRequest
}

// chromeTrace reports whether -trace names a Chrome trace_event file.
func chromeTrace(name string) bool { return strings.HasSuffix(name, ".json") }

// defineFlags declares every flag, so that TestFlagCount can count them:
// the seven shared with cmd/figures, the rest of the run description, then
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
	fs.BoolVar(&sp.StashBypass, "stash-bypass", false, "forward packets uncovered when the stash is full instead of stalling; arms the recovery timers, as an active -fault-plan does")
	fs.Int64Var(&sp.Drain, "drain", 0, "after the measured window, run up to this many unloaded cycles until every packet settles")
	fs.IntVar(&sp.Workers, "workers", runtime.GOMAXPROCS(0), "cycle-level worker goroutines stepping the network (1 = serial; results are identical either way)")
	fs.BoolVar(&sp.AssertDelivery, "assert-delivery", false, "with -drain and a fault plan or -stash-bypass, exit nonzero unless every injected packet delivered exactly once")

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
	fs.StringVar(&o.trace, "trace", "", "write the packet-lifecycle trace (a ring of the last 65536 events recorded, exported in time order) to this file: Chrome trace_event JSON if the name ends in .json, JSONL otherwise")
	fs.StringVar(&o.sample, "sample", "", "write network occupancy (stash and buffer fill, injection backlog) sampled every 64 cycles as CSV to this file")
	fs.Int64Var(&o.stallWindow, "watchdog", 0, "zero-delivery stall window in cycles (0 = off); dumps the flight recorder (the last 4096 64-cycle intervals) and non-idle switch state, also on SIGQUIT, at the next barrier")
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
	if o.trace != "" {
		n.EnableTracing(metrics.NewTracer(1 << 16))
	}
	if o.sample != "" {
		o.sampler = network.NewSampler(n, metrics.FlightInterval)
		n.Observe(o.sampler)
	}
	if o.profileExec {
		ring := 0
		if chromeTrace(o.trace) {
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
	if o.serve != "" || o.stallWindow > 0 {
		flight := network.NewFlightRecorder(n, 4096)
		n.Observe(flight)
		w := os.Stderr
		o.dumps = telemetry.NewDumpRequest(func() {
			fmt.Fprintf(w, "--- SIGQUIT dump at cycle %d ---\n", n.CyclesDone())
			flight.Dump(w, 64)
			n.DumpNonIdle(w)
		})
		n.Observe(o.dumps)
		stop = telemetry.NotifyDumps(o.dumps.Request)
		if o.stallWindow > 0 {
			o.watchdog = network.NewWatchdog(n, o.stallWindow, os.Stderr, flight)
			n.Observe(o.watchdog)
		}
	}
	if o.serve != "" {
		pub = telemetry.NewPublisher(n.TelemetrySnapshot, metrics.FlightInterval)
		n.Observe(pub)
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
	if err := run(&sp, &o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the command after its flags are parsed. Every failure returns
// through it, so what it deferred — the CPU profile's stop, the SIGQUIT
// handler, the worker pool — runs on a failing run too, and a failing run
// still leaves a profile pprof can read.
func run(sp *harness.Spec, o *cliOpts) error {
	// With -json, stdout carries exactly one JSON document; everything
	// human-readable moves to stderr.
	var out io.Writer = os.Stdout
	if o.jsonOut {
		out = os.Stderr
	}

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	// Build starts the worker pool and this function alone closes it, after
	// the final snapshot: Close drops to one worker, which would replace
	// the profiler the snapshot reads with an empty one-lane one.
	n, err := sp.Build()
	if err != nil {
		return err
	}
	defer n.Close()
	fmt.Fprintln(out, n.Describe())
	pub, stop, err := o.observe(n, out)
	if err != nil {
		return err
	}
	defer stop()
	reg, tracer, prof := n.Metrics, n.Tracer, n.Profiler

	if err := sp.Warm(n); err != nil {
		return err
	}
	s, runErr := sp.Run(n)
	if s == nil { // a failed -assert-delivery comes with the summary that shows it
		return runErr
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
	if iv := network.Observed[*core.Invariants](n); iv != nil {
		fmt.Fprintf(out, "invariants: %d audits, all laws held\n", iv.Checks)
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
		kind, write := "trace_jsonl", tracer.WriteJSONL
		if chromeTrace(o.trace) {
			// With -profile-exec, the executor's worker/phase lanes ride
			// along in the same trace file (pid 2).
			kind, write = "trace_chrome", tracer.WriteChromeTrace
			if prof != nil {
				write = func(w io.Writer) error { return tracer.WriteChromeTraceWith(w, prof.ChromeEvents) }
			}
		}
		if err := writeFileWith(o.trace, write); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		artifacts[kind] = o.trace
		fmt.Fprintf(out, "trace: %d events (%d dropped) -> %s\n", tracer.Len(), tracer.Dropped(), o.trace)
	}
	if o.sampler != nil {
		if err := os.WriteFile(o.sample, []byte(o.sampler.CSV()), 0o644); err != nil {
			return fmt.Errorf("sample: %w", err)
		}
		artifacts["occupancy_csv"] = o.sample
		fmt.Fprintf(out, "occupancy samples (every %d cycles) -> %s\n", metrics.FlightInterval, o.sample)
	}
	if w := o.watchdog; w != nil && w.Stalls > 0 {
		fmt.Fprintf(out, "watchdog: %d zero-delivery window(s) detected\n", w.Stalls)
	}
	if w := o.watchdog; w != nil && w.Suppressed > 0 {
		fmt.Fprintf(out, "watchdog: %d zero-delivery window(s) explained by fault outages\n", w.Suppressed)
	}
	if prof != nil {
		fmt.Fprintf(out, "\n%s", prof.Report().Text())
	}

	if o.memprofile != "" {
		runtime.GC()
		if err := writeFileWith(o.memprofile, pprof.WriteHeapProfile); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
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
		if o.watchdog != nil {
			s.WatchdogStall = o.watchdog.Stalls
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
			return fmt.Errorf("json: %w", err)
		}
	}

	if runErr != nil {
		return runErr
	}
	if sp.AssertDelivery {
		fmt.Fprintf(out, "assert-delivery: all %d packets delivered exactly once\n", s.Fault.InjectedPkts)
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
