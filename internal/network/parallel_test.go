package network

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/metrics"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/traffic"
)

// buildLoaded constructs a tiny e2e-stashing network with a fault plan and
// uniform traffic, identical for every call with the same seed.
func buildLoaded(t *testing.T, seed uint64) *Network {
	t.Helper()
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	cfg.Seed = seed
	cfg.Fault = &fault.Plan{Seed: seed + 101, LinkDropRate: 1e-3, CorruptRate: 5e-4}
	cfg.Retrans = core.DefaultRetrans()
	cfg.RetainPayload = true
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

// TestParallelMatchesSerial is the core determinism claim of the parallel
// executor: the same configuration stepped by one goroutine and by four
// produces bit-identical counters, fault statistics, and latency moments.
func TestParallelMatchesSerial(t *testing.T) {
	serial := buildLoaded(t, 3)
	serial.Warmup(500)
	serial.Run(6000)

	par := buildLoaded(t, 3)
	par.SetWorkers(4)
	defer par.Close()
	par.Warmup(500)
	par.Run(6000)

	if cs, cp := serial.Counters(), par.Counters(); cs != cp {
		t.Fatalf("counter divergence:\nserial   %+v\nparallel %+v", cs, cp)
	}
	if fs, fp := serial.FaultStats(), par.FaultStats(); fs != fp {
		t.Fatalf("fault stat divergence:\nserial   %+v\nparallel %+v", fs, fp)
	}
	ls, lp := serial.Collector().LatAcc[proto.ClassDefault], par.Collector().LatAcc[proto.ClassDefault]
	if ls != lp {
		t.Fatalf("latency divergence:\nserial   %+v\nparallel %+v", ls, lp)
	}
	if s, p := serial.NormalizedAccepted(6000), par.NormalizedAccepted(6000); s != p {
		t.Fatalf("accepted divergence: %v vs %v", s, p)
	}
	if serial.Now != par.Now {
		t.Fatalf("clock divergence: %d vs %d", serial.Now, par.Now)
	}
}

// TestParallelStepRace steps a fully instrumented network — metrics, tracer,
// sampler, watchdog, invariants, and fault injection all live — with four
// workers. Run under -race (make race / CI) it is the synchronization
// proof for the whole hot path; without -race it still covers the barrier
// hooks firing alongside concurrent component steps.
func TestParallelStepRace(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	n := buildLoaded(t, 11)
	n.EnableMetrics(metrics.NewRegistry())
	n.EnableTracing(metrics.NewTracer(1 << 12))
	n.Observe(NewSampler(n, 250))
	var out bytes.Buffer
	n.Observe(NewWatchdog(n, 50000, &out, nil))
	n.Observe(NewInvariants(n, 64))
	n.SetWorkers(4)
	defer n.Close()

	n.Warmup(200)
	n.Run(1500)
	if err := n.SanityCheck(); err != nil {
		t.Fatalf("sanity: %v", err)
	}
	if n.Collectors.TotalDeliveredFlits() == 0 {
		t.Fatal("instrumented parallel run delivered nothing")
	}
	if out.Len() != 0 {
		t.Fatalf("watchdog fired:\n%s", out.String())
	}
}

// TestRunUntilNonPositiveCheckEvery is the regression test for the spin bug:
// RunUntil with checkEvery <= 0 used to loop forever without advancing a
// cycle. It must clamp to one and respect the budget.
func TestRunUntilNonPositiveCheckEvery(t *testing.T) {
	for _, every := range []int64{0, -7} {
		cfg := core.TinyConfig()
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// done never fires: the call must still return after the budget.
		if n.RunUntil(10, every, func() bool { return false }) {
			t.Fatalf("checkEvery=%d: done reported without firing", every)
		}
		if n.Now != 10 {
			t.Fatalf("checkEvery=%d: advanced %d cycles, want 10", every, n.Now)
		}
		// And an immediately-true predicate fires on the first check.
		if !n.RunUntil(10, every, func() bool { return true }) {
			t.Fatalf("checkEvery=%d: true predicate not observed", every)
		}
	}
}

// TestNormalizedZeroCycles guards the division: a zero or negative measured
// window must yield 0, never NaN (which would poison -json summaries).
func TestNormalizedZeroCycles(t *testing.T) {
	cfg := core.TinyConfig()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cycles := range []int64{0, -100} {
		if v := n.NormalizedAccepted(cycles); v != 0 || math.IsNaN(v) {
			t.Fatalf("NormalizedAccepted(%d) = %v, want 0", cycles, v)
		}
		if v := n.NormalizedOffered(cycles); v != 0 || math.IsNaN(v) {
			t.Fatalf("NormalizedOffered(%d) = %v, want 0", cycles, v)
		}
	}
}

// TestWarmupNilCollectors verifies Warmup (and the normalization totals) are
// safe on a network whose collector set has been detached.
func TestWarmupNilCollectors(t *testing.T) {
	cfg := core.TinyConfig()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Collectors = nil
	for _, ep := range n.Endpoints {
		ep.Collector = nil
	}
	n.Warmup(100) // must not panic
	if v := n.NormalizedAccepted(100); v != 0 {
		t.Fatalf("collector-less NormalizedAccepted = %v, want 0", v)
	}
	if n.Now != 100 {
		t.Fatalf("Warmup advanced %d cycles, want 100", n.Now)
	}
}
