package network

import (
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/traffic"
)

// buildHotspot creates a tiny network with victim uniform traffic plus a
// 4:1 hotspot aggressor starting at cycle `start`. The victims' streams
// are restorable (GenRNG); the aggressors draw nothing.
func buildHotspot(t *testing.T, mode core.StashMode, start int64) *Network {
	t.Helper()
	cfg := core.TinyConfig()
	cfg.Mode = mode
	cfg.ECN = core.DefaultECN()
	// The tiny network's RTTs are short; speed ECN recovery up a little
	// to match its scale.
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse audit: these runs are long (60k cycles) and the laws are
	// state-based, so corruption is still caught at the next interval.
	n.Observe(NewInvariants(n, 64))
	rng := sim.NewRNG(99)
	rate := n.ChannelRate()
	hot := int32(7) // hotspot destination endpoint
	srcs := map[int32]bool{20: true, 30: true, 40: true, 50: true}
	for _, ep := range n.Endpoints {
		if srcs[ep.ID] {
			ep.Gen = traffic.Hotspot(hot, proto.MaxPacketFlits, proto.ClassAggressor, start)
		} else if ep.ID != hot {
			ep.GenRNG = rng.Derive(uint64(ep.ID))
			ep.Gen = traffic.Uniform(ep.GenRNG, len(n.Endpoints), nil,
				0.3, rate, proto.MaxPacketFlits, proto.ClassVictim, 0)
		}
	}
	return n
}

func TestECNThrottlesHotspot(t *testing.T) {
	n := buildHotspot(t, core.StashOff, 2000)
	n.Run(60000)
	c := n.Counters()
	if c.ECNMarks == 0 {
		t.Fatal("no ECN marks under a 4:1 hotspot")
	}
	if n.Collector().WindowShrinks == 0 {
		t.Fatal("no window shrinks despite marked ACKs")
	}
	// The aggressor sources' windows for the hotspot must have been
	// squeezed well below the maximum.
	sq := 0
	for _, src := range []int32{20, 30, 40, 50} {
		if n.Endpoints[src].WindowOf(7) < n.Cfg.ECN.WindowMax/2 {
			sq++
		}
	}
	if sq == 0 {
		t.Fatal("no aggressor window squeezed below half maximum")
	}
	if err := n.SanityCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestCongestionStashAbsorbsHotspot(t *testing.T) {
	n := buildHotspot(t, core.StashCongestion, 2000)
	n.Run(60000)
	c := n.Counters()
	if c.CongStashed == 0 {
		t.Fatal("no packets were congestion-stashed")
	}
	if c.StashRetrieves == 0 {
		t.Fatal("stashed packets were never retrieved")
	}
	// Every stashed flit must eventually be retrieved (stores include
	// those still resident; retrieval may lag but not by more than the
	// current occupancy).
	if c.StashRetrieves > c.StashStores {
		t.Fatalf("retrieved %d > stored %d", c.StashRetrieves, c.StashStores)
	}
	if err := n.SanityCheck(); err != nil {
		t.Fatal(err)
	}
	// After the aggressor's ECN throttling converges and traffic stops,
	// the stash must drain completely.
	for _, ep := range n.Endpoints {
		ep.Gen = nil
	}
	if !n.RunUntil(200000, 1000, func() bool { return n.TotalStashUsed() == 0 }) {
		t.Fatalf("congestion stash did not drain: %d flits", n.TotalStashUsed())
	}
}

func TestCongestionStashImprovesVictimLatency(t *testing.T) {
	base := buildHotspot(t, core.StashOff, 2000)
	base.Collectors.WithHist(proto.ClassVictim)
	base.Run(40000)
	stash := buildHotspot(t, core.StashCongestion, 2000)
	stash.Collectors.WithHist(proto.ClassVictim)
	stash.Run(40000)

	b99 := base.Collector().LatHist[proto.ClassVictim].Percentile(99)
	s99 := stash.Collector().LatHist[proto.ClassVictim].Percentile(99)
	t.Logf("victim p99: baseline=%d stash=%d; mean baseline=%.0f stash=%.0f",
		b99, s99,
		base.Collector().LatAcc[proto.ClassVictim].Mean(),
		stash.Collector().LatAcc[proto.ClassVictim].Mean())
	if s99 > b99 {
		t.Fatalf("stashing worsened victim tail latency: %d > %d", s99, b99)
	}
}
