package stashsim

// The benchmark harness: one benchmark per table and figure of the paper,
// regenerating the corresponding dataset at reduced (tiny/quick) scale so
// `go test -bench=.` completes on a laptop. Full-scale datasets are
// produced by `go run ./cmd/figures -preset small|paper -out results/`.
//
// Ablation benchmarks at the bottom quantify the design choices DESIGN.md
// calls out: JSQ vs random stash placement, the 1.3x internal speedup, and
// the two-bank port-memory model.

import (
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/harness"
	"stashsim/internal/metrics"
	"stashsim/internal/network"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/traffic"
)

func quickOpts() *harness.Options {
	return &harness.Options{Preset: "tiny", Quick: true, Seed: 1}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Table1(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Table2(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5aLatencyVsLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := harness.Fig5(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5bThroughput(b *testing.B) {
	// Fig 5b comes from the same sweep as 5a; bench a single saturation
	// point so the two benchmarks report distinguishable costs.
	for i := 0; i < b.N; i++ {
		o := quickOpts()
		cfg := core.TinyConfig()
		cfg.Mode = core.StashE2E
		n, err := network.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rng := sim.NewRNG(1)
		for _, ep := range n.Endpoints {
			ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
				1.0, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
		}
		n.Warmup(2000)
		n.Run(5000)
		_ = n.NormalizedAccepted(5000)
		_ = o
	}
}

func BenchmarkFig6Traces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig6(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7aTransient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig7(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7bLatencyDistribution(b *testing.B) {
	// The distribution is produced by the same runs as Fig 7a; bench the
	// histogram/inverse-CDF post-processing on a single congested run.
	o := quickOpts()
	r, err := harness.Fig7(o)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.InvCDF.CSV()
	}
}

func BenchmarkFig8StashUtilization(b *testing.B) {
	o := quickOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := harness.Fig7(o)
		if err != nil {
			b.Fatal(err)
		}
		_ = r.Stash.CSV()
	}
}

func BenchmarkFig9BurstSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig9(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -----------------------------------------------------------

// benchE2ESaturation measures accepted throughput at full offered load for
// a given config mutation, reporting it as a custom metric.
func benchE2ESaturation(b *testing.B, mutate func(*core.Config)) {
	for i := 0; i < b.N; i++ {
		cfg := core.TinyConfig()
		cfg.Mode = core.StashE2E
		if mutate != nil {
			mutate(cfg)
		}
		n, err := network.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rng := sim.NewRNG(5)
		for _, ep := range n.Endpoints {
			ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
				1.0, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
		}
		n.Warmup(3000)
		n.Run(8000)
		b.ReportMetric(n.NormalizedAccepted(8000), "accepted/cap")
	}
}

// BenchmarkAblationSpeedup quantifies the paper's 30% internal speedup:
// without it, the stash traffic's extra internal bandwidth demand costs
// throughput.
func BenchmarkAblationSpeedup(b *testing.B) {
	b.Run("speedup=1.3", func(b *testing.B) {
		benchE2ESaturation(b, nil)
	})
	b.Run("speedup=1.0", func(b *testing.B) {
		benchE2ESaturation(b, func(c *core.Config) {
			c.RateNum, c.RateDen = 1, 1
			// Latencies are specified in internal cycles; at 1.0x the
			// internal cycle equals the channel cycle, so rescale.
			c.Lat.Endpoint = c.Lat.Endpoint * 10 / 13
			c.Lat.Local = c.Lat.Local * 10 / 13
			c.Lat.Global = c.Lat.Global * 10 / 13
		})
	})
}

// BenchmarkAblationJSQ compares join-shortest-queue stash placement with
// uniformly random placement. With the 25% capacity restriction, balanced
// pools sustain injection longer, so JSQ should accept more throughput.
func BenchmarkAblationJSQ(b *testing.B) {
	b.Run("jsq", func(b *testing.B) {
		benchE2ESaturation(b, func(c *core.Config) { c.StashCapFrac = 0.25 })
	})
	b.Run("random", func(b *testing.B) {
		benchE2ESaturation(b, func(c *core.Config) {
			c.StashCapFrac = 0.25
			c.RandomStashPlacement = true
		})
	})
}

// BenchmarkAblationRouting compares progressive adaptive routing with
// purely minimal routing under uniform traffic.
func BenchmarkAblationRouting(b *testing.B) {
	b.Run("adaptive", func(b *testing.B) {
		benchE2ESaturation(b, nil)
	})
	b.Run("minimal", func(b *testing.B) {
		benchE2ESaturation(b, func(c *core.Config) { c.Route.Adaptive = false })
	})
}

// BenchmarkAblationBanks compares ideal 4-ported memory to the two-bank
// interleaved organization of Section III-B.
func BenchmarkAblationBanks(b *testing.B) {
	b.Run("ideal", func(b *testing.B) {
		benchE2ESaturation(b, nil)
	})
	b.Run("two-bank", func(b *testing.B) {
		benchE2ESaturation(b, func(c *core.Config) { c.BankModel = true })
	})
}

// BenchmarkSimulatorSpeed reports raw simulation throughput
// (switch-cycles per second) on the tiny network at moderate load — the
// engineering headline for the simulator substrate itself.
func BenchmarkSimulatorSpeed(b *testing.B) {
	cfg := core.TinyConfig()
	n, err := network.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2)
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			0.4, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Run(1000)
	}
	b.ReportMetric(float64(len(n.Switches))*1000, "switch-cycles/op")
}

// BenchmarkMetricsOverhead quantifies the cost of the observability layer:
// the same tiny e2e run with metrics disabled (nil handles everywhere) and
// enabled (registry + tracer + sampler attached). The disabled variant is
// the guard — it must run alloc-free inside the simulation loop, so leaving
// the instrumentation compiled in is free by default. EXPERIMENTS.md records
// the measured delta.
func BenchmarkMetricsOverhead(b *testing.B) {
	run := func(b *testing.B, observe bool) {
		cfg := core.TinyConfig()
		cfg.Mode = core.StashE2E
		n, err := network.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if observe {
			n.EnableMetrics(metrics.NewRegistry())
			n.EnableTracing(metrics.NewTracer(1 << 14))
			n.AttachSampler(500)
		}
		rng := sim.NewRNG(11)
		for _, ep := range n.Endpoints {
			ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
				0.3, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
		}
		n.Run(2000) // warm up: steady state, all buffers/pools allocated
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Run(100)
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })
}

// BenchmarkTelemetryOverhead quantifies the live-telemetry additions: the
// same tiny e2e run bare and with the executor profiler, flight recorder,
// and snapshot publisher all attached (the -profile-exec/-serve/-flight
// stack, minus the HTTP listener — serving reads only published snapshots,
// so the listener adds no per-cycle cost). EXPERIMENTS.md records the
// measured delta; the budget is <=5% enabled.
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, observe bool) {
		cfg := core.TinyConfig()
		cfg.Mode = core.StashE2E
		n, err := network.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if observe {
			n.EnableMetrics(metrics.NewRegistry())
			n.EnableExecProfile(0)
			n.AttachFlight(4096)
			n.AttachTelemetry(64)
		}
		defer n.Close()
		rng := sim.NewRNG(11)
		for _, ep := range n.Endpoints {
			ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
				0.3, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
		}
		n.Run(2000) // warm up: steady state, all buffers/pools allocated
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Run(100)
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })
}

// BenchmarkInvariantOverhead quantifies the runtime invariant checker: the
// same tiny e2e run with no checker, with the default sparse audit (every
// 64 cycles, the -invariants default), and with a per-cycle audit (the
// setting the corruption tests use). EXPERIMENTS.md records the deltas.
func BenchmarkInvariantOverhead(b *testing.B) {
	run := func(b *testing.B, every int64) {
		cfg := core.TinyConfig()
		cfg.Mode = core.StashE2E
		n, err := network.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if every > 0 {
			n.EnableInvariants(every)
		}
		rng := sim.NewRNG(11)
		for _, ep := range n.Endpoints {
			ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
				0.3, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
		}
		n.Run(2000) // warm up: steady state, all buffers/pools allocated
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Run(100)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, 0) })
	b.Run("every64", func(b *testing.B) { run(b, 64) })
	b.Run("every1", func(b *testing.B) { run(b, 1) })
}

// TestMetricsDisabledAllocFree is the hard form of the benchmark guard: a
// steady-state simulation step with no observability attached must not
// allocate at all, so the disabled path cannot regress silently.
func TestMetricsDisabledAllocFree(t *testing.T) {
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(11)
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			0.3, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	n.Run(5000) // reach steady state so pools and buffers are warm
	// Detach the generators: injection mints fresh flits (inherent to offered
	// traffic, metrics or not), so the guard measures the switching fabric
	// alone, with plenty of in-flight traffic still exercising the
	// instrumented stash/VC/crossbar paths.
	for _, ep := range n.Endpoints {
		ep.Gen = nil
	}
	n.Run(50)
	// Step is Run(1): the loop trace replay drives, one epoch per call.
	allocs := testing.AllocsPerRun(200, func() { n.Step() })
	if allocs > 0 {
		t.Fatalf("in-flight Step with metrics disabled allocates %.2f/op, want 0", allocs)
	}
}

// TestParallelSteadyStateAllocFree extends the zero-allocation guard to
// four partitions: a steady-state epoch must not touch the allocator
// either. The workers park at the epoch-entry barrier between Runs and the
// coordinator publishes each span with plain atomic stores, so workers>1
// costs synchronization time, never allocation. (AllocsPerRun
// pins GOMAXPROCS to 1; the barrier spins with Gosched, so the worker
// goroutines still make progress — slowly, which is fine for a guard.)
func TestParallelSteadyStateAllocFree(t *testing.T) {
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.SetWorkers(4)
	rng := sim.NewRNG(11)
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			0.3, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	n.Run(5000) // steady state; also spawns the worker goroutines once
	for _, ep := range n.Endpoints {
		ep.Gen = nil
	}
	n.Run(50)
	allocs := testing.AllocsPerRun(100, func() { n.Run(1) })
	if allocs > 0 {
		t.Fatalf("in-flight parallel Run(1) with 4 workers allocates %.2f/op, want 0", allocs)
	}
	// Run(1) forces 1-cycle epochs; a multi-epoch run additionally covers
	// the free-running epoch loop and the cross-partition slab drains
	// (tiny lookahead is 65, so 130 cycles is two full epochs per run).
	if la := n.EpochLookahead(); la != 65 {
		t.Fatalf("alloc guard expected group partitions (lookahead 65), got %d", la)
	}
	allocs = testing.AllocsPerRun(20, func() { n.Run(130) })
	if allocs > 0 {
		t.Fatalf("steady-state epoch Run(130) with 4 workers allocates %.2f/op, want 0", allocs)
	}
}
