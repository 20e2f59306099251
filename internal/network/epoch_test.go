package network

import (
	"bytes"
	"runtime"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/traffic"
)

// buildLoadedWith is buildLoaded with a configuration hook applied before
// wiring, for tests that vary latencies or the fault plan.
func buildLoadedWith(t *testing.T, seed uint64, mutate func(cfg *core.Config)) *Network {
	t.Helper()
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	cfg.Seed = seed
	cfg.Fault = &fault.Plan{Seed: seed + 101, LinkDropRate: 1e-3, CorruptRate: 5e-4}
	cfg.Retrans = core.DefaultRetrans()
	cfg.RetainPayload = true
	if mutate != nil {
		mutate(cfg)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := sim.NewRNG(seed + 77)
	rate := n.ChannelRate()
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			0.25, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	return n
}

// every is an Observer that names every k-th cycle and does nothing at it:
// the way to hold a network to epochs of at most k cycles — 1 forces a
// barrier after every cycle — from outside.
type every int64

func (k every) NextEventAt(from int64) int64 { return sim.NextMultiple(from, int64(k)) }
func (k every) AtBarrier(int64)              {}

// mustSyncWithin fails unless the network's epochs so far averaged at most
// k cycles, the sign that an every(k) observer (or a k-cycle lookahead) was
// in force for the run.
func mustSyncWithin(t *testing.T, n *Network, k int64) {
	t.Helper()
	if st := n.ExecStats(); st.Epochs == 0 || st.CyclesPerSync > float64(k) {
		t.Fatalf("%d epochs at %.2f cycles/sync, want at most %d", st.Epochs, st.CyclesPerSync, k)
	}
}

// mustMatchSerial runs par and a serial twin for the same cycles and
// fails on any observable divergence, down to the machine state's digest.
func mustMatchSerial(t *testing.T, par *Network, seed uint64, mutate func(cfg *core.Config), warm, run int64) {
	t.Helper()
	serial := buildLoadedWith(t, seed, mutate)
	serial.Warmup(warm)
	serial.Run(run)
	par.Warmup(warm)
	par.Run(run)
	if cs, cp := serial.Counters(), par.Counters(); cs != cp {
		t.Fatalf("counter divergence:\nserial %+v\npar    %+v", cs, cp)
	}
	if fs, fp := serial.FaultStats(), par.FaultStats(); fs != fp {
		t.Fatalf("fault stat divergence:\nserial %+v\npar    %+v", fs, fp)
	}
	ls, lp := serial.Collector().LatAcc[proto.ClassDefault], par.Collector().LatAcc[proto.ClassDefault]
	if ls != lp {
		t.Fatalf("latency divergence:\nserial %+v\npar    %+v", ls, lp)
	}
	if serial.Now != par.Now {
		t.Fatalf("clock divergence: %d vs %d", serial.Now, par.Now)
	}
	if ds, dp := serial.StateDigest(), par.StateDigest(); ds != dp {
		t.Fatalf("state digest divergence: serial %#x, par %#x", ds, dp)
	}
}

// TestEpochMatchesSerial is the determinism claim for the partitioned
// executor: partitions free-running for full-lookahead epochs produce
// bit-identical results to the one-partition network, for group-aligned
// worker counts (only global links cross: lookahead 65 on tiny), for more
// workers than tiny's 9 groups (switch blocks, local links cross too:
// lookahead 13), and with an observer holding every epoch to one cycle.
func TestEpochMatchesSerial(t *testing.T) {
	for _, pt := range []struct {
		workers        int
		cap, lookahead int64
	}{{2, 0, 65}, {3, 0, 65}, {9, 0, 65}, {12, 0, 13}, {4, 1, 65}} {
		par := buildLoadedWith(t, 5, nil)
		par.SetWorkers(pt.workers)
		if la := par.EpochLookahead(); la != pt.lookahead {
			t.Fatalf("workers=%d: lookahead %d, want %d", pt.workers, la, pt.lookahead)
		}
		sync := pt.lookahead
		if pt.cap > 0 {
			par.Observe(every(pt.cap))
			sync = pt.cap
		}
		mustMatchSerial(t, par, 5, nil, 500, 6000)
		mustSyncWithin(t, par, sync)
		par.Close()
	}
}

// TestEpochPolicyOffMatches pins the per-cycle barrier as a degenerate
// epoch schedule: held to one cycle by an observer that names every cycle,
// four workers still match.
func TestEpochPolicyOffMatches(t *testing.T) {
	par := buildLoadedWith(t, 6, nil)
	par.SetWorkers(4)
	par.Observe(every(1))
	defer par.Close()
	mustMatchSerial(t, par, 6, nil, 300, 3000)
	mustSyncWithin(t, par, 1)
}

// TestEpochPolicyCap pins short epochs: an observer naming every seventh
// cycle bounds the epoch below the topological lookahead and the run stays
// exact.
func TestEpochPolicyCap(t *testing.T) {
	par := buildLoadedWith(t, 7, nil)
	par.SetWorkers(4)
	par.Observe(every(7))
	defer par.Close()
	mustMatchSerial(t, par, 7, nil, 300, 3000)
	mustSyncWithin(t, par, 7)
}

// TestEpochGlobalLatencyOneDegrades forces the degenerate topology where
// the lookahead is a single cycle: the same loop must degrade to a barrier
// every cycle and the run must stay identical to serial.
func TestEpochGlobalLatencyOneDegrades(t *testing.T) {
	squash := func(cfg *core.Config) { cfg.Lat.Global = 1 }
	par := buildLoadedWith(t, 8, squash)
	par.SetWorkers(4)
	defer par.Close()
	if la := par.EpochLookahead(); la != 1 {
		t.Fatalf("global latency 1: lookahead %d, want 1", la)
	}
	mustMatchSerial(t, par, 8, squash, 300, 3000)
}

// TestEpochWorkersExceedGroups pins the finer cut for worker counts past
// the group count (tiny has 9 groups of 4 switches): blocks of switches,
// so local links cross and set the lookahead; and a count past the switch
// count is clamped to one switch per partition.
func TestEpochWorkersExceedGroups(t *testing.T) {
	par := buildLoadedWith(t, 9, nil)
	par.SetWorkers(12)
	defer par.Close()
	if la := par.EpochLookahead(); la != par.Cfg.Lat.Local {
		t.Fatalf("workers>groups: lookahead %d, want local latency %d", la, par.Cfg.Lat.Local)
	}
	mustMatchSerial(t, par, 9, nil, 300, 3000)
	par.SetWorkers(1000)
	if got, want := par.workers, len(par.Switches); got != want {
		t.Fatalf("SetWorkers(1000) kept %d workers, want the switch count %d", got, want)
	}
}

// TestEpochMidEpochFaultExact schedules stash-bank failures on cycles that
// are not multiples of the 65-cycle tiny lookahead: the scheduler must clamp
// epochs so each failure lands on its exact cycle, leaving every counter —
// including the loss/reconstruction accounting — identical to serial.
func TestEpochMidEpochFaultExact(t *testing.T) {
	failPlan := func(cfg *core.Config) {
		cfg.Fault.StashFailures = []fault.StashFail{
			{Switch: 0, Port: 1, At: 137},
			{Switch: 7, Port: 2, At: 611},
			{Switch: 12, Port: 0, At: 612},
		}
	}
	par := buildLoadedWith(t, 10, failPlan)
	par.SetWorkers(4)
	defer par.Close()
	if la := par.EpochLookahead(); la != 65 {
		t.Fatalf("lookahead %d, want 65", la)
	}
	mustMatchSerial(t, par, 10, failPlan, 0, 4000)
	if _, ok := par.Injector.NextStashFailAt(4000); ok {
		t.Fatal("scheduled stash-bank failures were not all delivered by cycle 4000")
	}
}

// TestEpochObserversExact runs sampler + invariants + watchdog with
// intervals coprime to the lookahead and compares the sampled series
// byte-for-byte: interval observers must fire on their exact cycles from a
// quiescent barrier, not at epoch granularity.
func TestEpochObserversExact(t *testing.T) {
	serial := buildLoadedWith(t, 11, nil)
	spS := NewSampler(serial, 97)
	serial.Observe(spS)
	serial.Observe(NewInvariants(serial, 129))
	var outS bytes.Buffer
	wdS := NewWatchdog(serial, 1000, &outS, nil)
	serial.Observe(wdS)
	serial.Run(3000)

	par := buildLoadedWith(t, 11, nil)
	par.SetWorkers(4)
	defer par.Close()
	spP := NewSampler(par, 97)
	par.Observe(spP)
	par.Observe(NewInvariants(par, 129))
	var outP bytes.Buffer
	wdP := NewWatchdog(par, 1000, &outP, nil)
	par.Observe(wdP)
	par.Run(3000)

	if la := par.EpochLookahead(); la != 65 {
		t.Fatalf("lookahead %d, want 65", la)
	}
	if s, p := spS.CSV(), spP.CSV(); s != p {
		t.Fatalf("sampled series diverge:\nserial:\n%s\nepoch:\n%s", s, p)
	}
	if wdS.Stalls != wdP.Stalls {
		t.Fatalf("watchdog stalls diverge: %d vs %d", wdS.Stalls, wdP.Stalls)
	}
	if !bytes.Equal(outS.Bytes(), outP.Bytes()) {
		t.Fatalf("watchdog dumps diverge:\nserial:\n%s\nepoch:\n%s", outS.String(), outP.String())
	}
}

// TestEpochWatchdogStallExact starves the network (every link drops every
// flit) so the watchdog genuinely fires, and requires the stall count and
// the dump bytes — which embed the exact stall cycles — to match serial.
func TestEpochWatchdogStallExact(t *testing.T) {
	starve := func(cfg *core.Config) { cfg.Fault.LinkDropRate = 1.0 }

	serial := buildLoadedWith(t, 12, starve)
	var outS bytes.Buffer
	wdS := NewWatchdog(serial, 300, &outS, nil)
	serial.Observe(wdS)
	serial.Run(2000)

	par := buildLoadedWith(t, 12, starve)
	par.SetWorkers(4)
	defer par.Close()
	var outP bytes.Buffer
	wdP := NewWatchdog(par, 300, &outP, nil)
	par.Observe(wdP)
	par.Run(2000)

	if wdS.Stalls == 0 {
		t.Fatal("starved network never stalled; the test is vacuous")
	}
	if wdS.Stalls != wdP.Stalls {
		t.Fatalf("stall counts diverge: serial %d, epoch %d", wdS.Stalls, wdP.Stalls)
	}
	if !bytes.Equal(outS.Bytes(), outP.Bytes()) {
		t.Fatalf("stall dumps diverge:\nserial:\n%s\nepoch:\n%s", outS.String(), outP.String())
	}
}

// TestCloseFallsBackToSerial is the regression test for the silent
// executor rebuild: Close promises inline execution, but it used to keep
// the worker count, so the next Run quietly re-spawned a fresh pool. A
// closed network must not grow its goroutine count on Run — and the
// repartition must hand the traffic staged on crossing links to the single
// partition exactly (same results as an uninterrupted serial run).
func TestCloseFallsBackToSerial(t *testing.T) {
	serial := buildLoadedWith(t, 13, nil)
	serial.Run(2400)

	par := buildLoadedWith(t, 13, nil)
	par.SetWorkers(4)
	par.Run(1200) // epoch executor active, traffic in flight
	par.Close()

	base := runtime.NumGoroutine() // Close has waited for the workers
	par.Run(1200)                  // must run inline on this goroutine
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("Run after Close spawned goroutines: %d -> %d", base, g)
	}
	if cs, cp := serial.Counters(), par.Counters(); cs != cp {
		t.Fatalf("mid-run Close diverged from serial:\nserial %+v\nclosed %+v", cs, cp)
	}
	if fs, fp := serial.FaultStats(), par.FaultStats(); fs != fp {
		t.Fatalf("mid-run Close fault divergence:\nserial %+v\nclosed %+v", fs, fp)
	}
}

// TestSetWorkersMidRunExact covers the reverse hand-off: one partition
// for the first half, four for the second, still bit-identical to an
// uninterrupted serial run (the repartition re-arms traffic already riding
// the links).
func TestSetWorkersMidRunExact(t *testing.T) {
	serial := buildLoadedWith(t, 14, nil)
	serial.Run(2400)

	par := buildLoadedWith(t, 14, nil)
	par.Run(1200)
	par.SetWorkers(4)
	defer par.Close()
	par.Run(1200)
	if la := par.EpochLookahead(); la != 65 {
		t.Fatalf("lookahead %d, want 65", la)
	}
	if cs, cp := serial.Counters(), par.Counters(); cs != cp {
		t.Fatalf("mid-run SetWorkers diverged:\nserial %+v\npar    %+v", cs, cp)
	}
}

// TestStepAfterParallelRunExact is the regression test for Step on a
// network whose workers are live: Step used to walk every component on the
// calling goroutine while crossing links were still in epoch delivery, so
// nothing drained their slabs and the run silently diverged (FlitsSwitched
// 114402 vs 114619 on this scenario). Step is Run(1) now — the pattern
// trace.Replay drives — and must match an uninterrupted serial run.
func TestStepAfterParallelRunExact(t *testing.T) {
	serial := buildLoadedWith(t, 14, nil)
	serial.Run(2400)

	par := buildLoadedWith(t, 14, nil)
	par.SetWorkers(4)
	defer par.Close()
	par.Run(1200)
	for i := 0; i < 600; i++ {
		par.Step()
	}
	par.Run(600)
	if cs, cp := serial.Counters(), par.Counters(); cs != cp {
		t.Fatalf("Step after a parallel Run diverged:\nserial %+v\npar    %+v", cs, cp)
	}
	is, ds, us, as := serial.DeliveryTotals()
	ip, dp, up, ap := par.DeliveryTotals()
	if is != ip || ds != dp || us != up || as != ap {
		t.Fatalf("delivery totals diverged: serial %d/%d/%d/%d, par %d/%d/%d/%d", is, ds, us, as, ip, dp, up, ap)
	}
	if serial.Now != par.Now {
		t.Fatalf("clock divergence: %d vs %d", serial.Now, par.Now)
	}
	if ds, dp := serial.StateDigest(), par.StateDigest(); ds != dp {
		t.Fatalf("state digest divergence: serial %#x, par %#x", ds, dp)
	}
}

// TestSetExecProfilerNilDetaches pins the nil contract: nil detaches
// cleanly (no panic, profiling off) instead of dereferencing p.
func TestSetExecProfilerNilDetaches(t *testing.T) {
	n := buildLoadedWith(t, 15, nil)
	n.EnableExecProfile(0)
	if err := n.SetExecProfiler(nil); err != nil {
		t.Fatalf("SetExecProfiler(nil): %v", err)
	}
	if n.Profiler != nil {
		t.Fatal("nil attach left a profiler installed")
	}
	n.Run(100) // must not profile or panic
	if n.Now != 100 {
		t.Fatalf("run advanced %d cycles, want 100", n.Now)
	}
}

// TestSetExecProfilerMismatchError pins the loud-failure contract: a
// profiler sized for the wrong worker count is rejected at attach time
// (it used to be silently dropped by Executor.Run, yielding an unprofiled
// parallel run with no diagnostic).
func TestSetExecProfilerMismatchError(t *testing.T) {
	n := buildLoadedWith(t, 16, nil)
	n.SetWorkers(4)
	defer n.Close()
	if err := n.SetExecProfiler(sim.NewExecProfiler(2, 0)); err == nil {
		t.Fatal("mismatched profiler accepted silently")
	}
	if err := n.SetExecProfiler(sim.NewExecProfiler(4, 0)); err != nil {
		t.Fatalf("matched profiler rejected: %v", err)
	}
}

// TestEnableExecProfileBeforeSetWorkers pins the resize contract for the
// other half of the satellite: EnableExecProfile before SetWorkers used to
// leave a 1-lane profiler attached to a 4-worker run, which Executor.Run
// silently dropped. Now SetWorkers resizes the network-owned profiler and
// the parallel run is actually profiled.
func TestEnableExecProfileBeforeSetWorkers(t *testing.T) {
	n := buildLoadedWith(t, 17, nil)
	n.EnableExecProfile(0)
	n.SetWorkers(4)
	defer n.Close()
	if w := n.Profiler.Workers(); w != 4 {
		t.Fatalf("profiler lanes %d after SetWorkers(4), want 4", w)
	}
	n.Run(500)
	rep := n.Profiler.Report()
	if rep.Attribution.Cycles != 500 {
		t.Fatalf("profiled %d cycles, want 500", rep.Attribution.Cycles)
	}
	if rep.Attribution.Epochs == 0 || rep.Attribution.CyclesPerSync <= 1 {
		t.Fatalf("epoch run not profiled as epochs: %+v", rep)
	}
}

// TestEpochProfilerSyncAttribution is the acceptance check at test scale:
// with no serial observers attached, a tiny epoch run must synchronize at
// most once per full lookahead (65 cycles), i.e. CyclesPerSync == 65.
func TestEpochProfilerSyncAttribution(t *testing.T) {
	n := buildLoadedWith(t, 18, nil)
	n.SetWorkers(4)
	defer n.Close()
	n.EnableExecProfile(0)
	n.Run(6500)
	rep := n.Profiler.Report()
	if rep.Attribution.Epochs != 100 {
		t.Fatalf("6500 cycles at lookahead 65 took %d epochs, want 100", rep.Attribution.Epochs)
	}
	if rep.Attribution.CyclesPerSync != 65 {
		t.Fatalf("cycles/sync = %v, want 65", rep.Attribution.CyclesPerSync)
	}
}
