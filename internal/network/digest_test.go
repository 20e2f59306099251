package network

import (
	"runtime"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/metrics"
	"stashsim/internal/sim"
)

// loadedNet builds the scenario on the preset with restorable uniform
// traffic and no observers, for the checkpoint and digest costs.
func loadedNet(t testing.TB, preset string, sc snapScenario) *Network {
	t.Helper()
	cfg := snapConfig(preset, sc)
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	wireSnapTraffic(n, cfg, sc)
	return n
}

// TestCheckpointWrittenOnce: Checkpoint measures the state before it writes
// it, so the snapshot is allocated once, at exactly its length, and the
// walk itself allocates next to nothing — on every kind of state the walk
// covers, entries staged on partition-crossing links included.
func TestCheckpointWrittenOnce(t *testing.T) {
	scs := snapScenarios(900)
	cases := []struct {
		name    string
		sc      snapScenario
		metrics bool
	}{
		{"e2e", snapScenario{mode: core.StashE2E, load: 0.3}, false},
		{"congestion-ecn", scs[2], false},
		{"parity-faults-retain", scs[1], false},
		{"e2e-metrics", snapScenario{mode: core.StashE2E, load: 0.3}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := loadedNet(t, "tiny", tc.sc)
			defer n.Close()
			if tc.metrics {
				n.EnableMetrics(metrics.NewRegistry())
			}
			n.SetWorkers(3)
			n.Run(1000)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ck := n.Checkpoint(n.Now)
			runtime.ReadMemStats(&after)
			if len(ck) != cap(ck) {
				t.Fatalf("checkpoint of %d bytes in a buffer of %d: the buffer was not sized by measuring", len(ck), cap(ck))
			}
			if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(len(ck))+64<<10; alloc > bound {
				t.Fatalf("a %d-byte checkpoint allocated %d bytes, want at most %d", len(ck), alloc, bound)
			}
		})
	}
}

// TestStateDigest: the digest is a function of the model state alone. A
// restored network digests as its source did at the checkpoint and still
// does 100 cycles on, a loaded cycle changes it, and its allocations do
// not grow with the network.
func TestStateDigest(t *testing.T) {
	sc := snapScenarios(900)[0]
	src := loadedNet(t, "tiny", sc)
	defer src.Close()
	src.SetWorkers(3)
	var ck []byte
	var atCkpt uint64
	src.ScheduleCheckpoint(700, func(now sim.Tick) {
		if done := src.CyclesDone(); done != int64(now) {
			t.Fatalf("checkpoint hook at cycle %d sees CyclesDone %d", now, done)
		}
		ck, atCkpt = src.Checkpoint(now), src.StateDigest()
	})
	src.Run(800)

	dst := loadedNet(t, "tiny", sc)
	if err := dst.Restore(ck); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := dst.StateDigest(); got != atCkpt {
		t.Fatalf("restored digest %#x, source had %#x at the checkpoint", got, atCkpt)
	}
	dst.Run(100)
	if got, want := dst.StateDigest(), src.StateDigest(); got != want {
		t.Fatalf("100 cycles after the checkpoint: restored digest %#x, source %#x", got, want)
	}

	before := src.StateDigest()
	src.Run(1)
	if src.StateDigest() == before {
		t.Fatal("a loaded cycle left the digest unchanged")
	}

	allocs := map[string]float64{}
	for _, preset := range []string{"tiny", "small"} {
		n := loadedNet(t, preset, sc)
		n.Run(300)
		allocs[preset] = testing.AllocsPerRun(5, func() { n.StateDigest() })
		n.Close()
	}
	if allocs["tiny"] != allocs["small"] {
		t.Fatalf("StateDigest allocates %v times on tiny and %v on small: some walk allocates per component",
			allocs["tiny"], allocs["small"])
	}
}

// BenchmarkCheckpoint is one checkpoint of a warm, loaded tiny network.
func BenchmarkCheckpoint(b *testing.B) {
	n := loadedNet(b, "tiny", snapScenarios(900)[0])
	defer n.Close()
	n.Run(1000)
	b.ReportAllocs()
	b.ResetTimer()
	var size int
	for range b.N {
		size = len(n.Checkpoint(n.Now))
	}
	b.ReportMetric(float64(size), "bytes/ckpt")
}

// BenchmarkStateDigest is one digest of a warm, loaded network.
func BenchmarkStateDigest(b *testing.B) {
	for _, preset := range []string{"tiny", "small"} {
		b.Run(preset, func(b *testing.B) {
			n := loadedNet(b, preset, snapScenarios(900)[0])
			defer n.Close()
			n.Run(300)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				n.StateDigest()
			}
		})
	}
}
