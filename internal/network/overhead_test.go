package network

import (
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/metrics"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/telemetry"
	"stashsim/internal/traffic"
)

// The guards and prices of the observability layer, next to the code they
// guard: two hard zero-allocation tests for the unobserved hot path, and
// three benchmarks that price attached observers. The benchmarks are
// judged by nothing and retire when bench/ gains an observed ur-par
// workload (ROADMAP); run one with
// `go test -run '^$' -bench Overhead -benchmem ./internal/network`.

// loadedTiny builds the tiny e2e network under uniform 30% load.
func loadedTiny(tb testing.TB) *Network {
	tb.Helper()
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	n, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := sim.NewRNG(11)
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			0.3, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	return n
}

// benchObserved times steady-state 100-cycle runs of a loaded tiny network
// with whatever attach puts on it before the warm-up (nil: nothing).
func benchObserved(b *testing.B, name string, attach func(n *Network)) {
	b.Run(name, func(b *testing.B) {
		n := loadedTiny(b)
		defer n.Close()
		if attach != nil {
			attach(n)
		}
		n.Run(2000) // warm up: steady state, all buffers/pools allocated
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Run(100)
		}
	})
}

// BenchmarkMetricsOverhead prices the tracer and sampler (and an attached
// registry, which only names counts that are kept anyway) against nothing
// attached.
func BenchmarkMetricsOverhead(b *testing.B) {
	benchObserved(b, "disabled", nil)
	benchObserved(b, "enabled", func(n *Network) {
		n.EnableMetrics(metrics.NewRegistry())
		n.EnableTracing(metrics.NewTracer(1 << 14))
		n.Observe(NewSampler(n, 500))
	})
}

// BenchmarkTelemetryOverhead prices the -profile-exec/-serve stack minus
// the HTTP listener, which reads only published snapshots.
func BenchmarkTelemetryOverhead(b *testing.B) {
	benchObserved(b, "disabled", nil)
	benchObserved(b, "enabled", func(n *Network) {
		n.EnableMetrics(metrics.NewRegistry())
		n.EnableExecProfile(0)
		n.Observe(NewFlightRecorder(n, 4096))
		n.Observe(telemetry.NewPublisher(n.TelemetrySnapshot, metrics.FlightInterval))
	})
}

// BenchmarkInvariantOverhead prices the invariant checker at the
// -invariants default and at every cycle.
func BenchmarkInvariantOverhead(b *testing.B) {
	benchObserved(b, "off", nil)
	benchObserved(b, "every64", func(n *Network) { n.Observe(NewInvariants(n, 64)) })
	benchObserved(b, "every1", func(n *Network) { n.Observe(NewInvariants(n, 1)) })
}

// TestMetricsDisabledAllocFree is the hard form of the benchmark guard: a
// steady-state simulation step with no observability attached must not
// allocate at all, so the disabled path cannot regress silently.
func TestMetricsDisabledAllocFree(t *testing.T) {
	n := loadedTiny(t)
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
	n := loadedTiny(t)
	defer n.Close()
	n.SetWorkers(4)
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
	// the free-running epoch loop and the cross-partition stage drains
	// (tiny lookahead is 65, so 130 cycles is two full epochs per run).
	if la := n.EpochLookahead(); la != 65 {
		t.Fatalf("alloc guard expected group partitions (lookahead 65), got %d", la)
	}
	allocs = testing.AllocsPerRun(20, func() { n.Run(130) })
	if allocs > 0 {
		t.Fatalf("steady-state epoch Run(130) with 4 workers allocates %.2f/op, want 0", allocs)
	}
}
