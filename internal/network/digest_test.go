package network

import (
	"runtime"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/metrics"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/traffic"
)

// TestCheckpointWrittenOnce: Checkpoint measures the state before it writes
// it, so the snapshot is allocated once, at exactly its length, and the
// walk itself allocates next to nothing — on every kind of state the walk
// covers, entries staged on partition-crossing links included.
func TestCheckpointWrittenOnce(t *testing.T) {
	cases := []struct {
		name, regime string
		metrics      bool
	}{
		{"e2e", "e2e", false},
		{"congestion-ecn", "ecn", false},
		{"parity-faults-retain", "faults-parity", false},
		{"e2e-metrics", "e2e", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := loadedNet(t, "tiny", tc.regime)
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

// TestCheckpointCompact pins what a checkpoint of a loaded small network
// costs. Most of what the walk visits is idle — empty queues, zero counts
// and locks, the next flit of the same packet, deadlines a cycle apart —
// and the format writes each of those in a byte or less. Version 4, all
// fixed-width, wrote these two states in 5 047 565 bytes (e2e at load
// 0.25) and 7 850 044 (congestion stashing with ECN under hotspots); a
// checkpoint must stay within 0.3 of that, so a return to fixed-width
// fields fails.
func TestCheckpointCompact(t *testing.T) {
	for _, tc := range []struct {
		regime string
		v4     int
	}{{"e2e", 5047565}, {"ecn", 7850044}} {
		t.Run(tc.regime, func(t *testing.T) {
			n := loadedNet(t, "small", tc.regime)
			defer n.Close()
			n.Run(1000)
			size := len(n.Checkpoint(n.Now))
			if limit := tc.v4 * 3 / 10; size > limit {
				t.Fatalf("a checkpoint of %d bytes, more than %d (0.3 of version 4's %d)", size, limit, tc.v4)
			}
			t.Logf("%d bytes, %.3f of version 4's", size, float64(size)/float64(tc.v4))
		})
	}
}

// TestStateDigest: the digest is a function of the model state alone. A
// restored network digests as its source did at the checkpoint and still
// does 100 cycles on, a loaded cycle changes it, and its allocations do
// not grow with the network.
func TestStateDigest(t *testing.T) {
	src := loadedNet(t, "tiny", "faults-parity")
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

	dst := loadedNet(t, "tiny", "faults-parity")
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
		n := loadedNet(t, preset, "faults-parity")
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
	n := loadedNet(b, "tiny", "faults-parity")
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
			n := loadedNet(b, preset, "faults-parity")
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

// BenchmarkNew builds the paper network: what a restore or a sweep point
// pays before its first cycle. TestNewBytes bounds its bytes.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		if _, err := New(core.PaperConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore restores a paper network with end-to-end stashing,
// warmed 2 600 cycles at 10 % uniform load, into a freshly built one: the
// decode of a `figures -restore` point and of the warm-resume workload.
// Building the network is not timed.
func BenchmarkRestore(b *testing.B) {
	build := func() *Network {
		cfg := core.PaperConfig()
		cfg.Mode = core.StashE2E
		n, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rng := sim.NewRNG(1)
		for _, ep := range n.Endpoints {
			ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
				0.1, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
		}
		return n
	}
	src := build()
	src.Run(2600)
	data := src.Checkpoint(src.Now)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		n := build()
		b.StartTimer()
		if err := n.Restore(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data)), "bytes/ckpt")
}
