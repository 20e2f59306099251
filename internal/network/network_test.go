package network

import (
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/traffic"
)

// runUR builds a tiny network in the given mode and runs uniform traffic,
// returning it for inspection.
func runUR(t *testing.T, mode core.StashMode, load float64, cycles int64) *Network {
	t.Helper()
	cfg := core.TinyConfig()
	cfg.Mode = mode
	if mode == core.StashCongestion {
		cfg.ECN = core.DefaultECN()
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n.Observe(NewInvariants(n, 16))
	rng := sim.NewRNG(42)
	rate := n.ChannelRate()
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			load, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	n.Run(cycles)
	if err := n.SanityCheck(); err != nil {
		t.Fatalf("sanity: %v", err)
	}
	return n
}

func TestBaselineDeliversUniformTraffic(t *testing.T) {
	n := runUR(t, core.StashOff, 0.2, 20000)
	c := n.Collector()
	if c.DeliveredPkts[proto.ClassDefault] == 0 {
		t.Fatal("no packets delivered")
	}
	// At 20% load the network is far from saturation: nearly everything
	// offered should be delivered (modulo in-flight tail).
	del := c.TotalDeliveredFlits()
	off := c.TotalOfferedFlits()
	if float64(del) < 0.9*float64(off) {
		t.Fatalf("delivered %d of %d offered flits", del, off)
	}
	// Latency must be at least the minimum channel traversal.
	if c.LatAcc[proto.ClassDefault].Min < float64(2*n.Cfg.Lat.Endpoint) {
		t.Fatalf("implausibly low min latency %.0f", c.LatAcc[proto.ClassDefault].Min)
	}
}

func TestE2EStashTracksOutstandingPackets(t *testing.T) {
	n := runUR(t, core.StashE2E, 0.2, 20000)
	cnt := n.Counters()
	if cnt.E2ETracked == 0 {
		t.Fatal("no packets tracked")
	}
	if cnt.StashStores == 0 {
		t.Fatal("no flits stashed")
	}
	if cnt.E2EDeletes == 0 {
		t.Fatal("no stash copies deleted by ACKs")
	}
	// Tracked entries should be created for every delivered data packet
	// (all injections come from end ports).
	if cnt.E2ETracked < n.Collector().DeliveredPkts[proto.ClassDefault] {
		t.Fatalf("tracked %d < delivered %d", cnt.E2ETracked, n.Collector().DeliveredPkts[proto.ClassDefault])
	}
}

func TestE2EStashDrainsWhenTrafficStops(t *testing.T) {
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	rate := n.ChannelRate()
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			0.3, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	n.Run(5000)
	for _, ep := range n.Endpoints {
		ep.Gen = nil
	}
	// After the network drains, every stash copy must have been deleted
	// and no tracking entries may remain.
	ok := n.RunUntil(200000, 1000, func() bool {
		if n.TotalStashUsed() != 0 {
			return false
		}
		for _, s := range n.Switches {
			if s.TrackedPackets() != 0 {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatalf("stash did not drain: %d flits committed, counters %+v",
			n.TotalStashUsed(), n.Counters())
	}
}

func TestDeterminism(t *testing.T) {
	a := runUR(t, core.StashE2E, 0.25, 8000)
	b := runUR(t, core.StashE2E, 0.25, 8000)
	ca, cb := a.Counters(), b.Counters()
	if ca != cb {
		t.Fatalf("counter divergence:\n%+v\n%+v", ca, cb)
	}
	if a.Collectors.TotalDeliveredFlits() != b.Collectors.TotalDeliveredFlits() {
		t.Fatal("delivered flit divergence")
	}
	la, lb := a.Collector().LatAcc[proto.ClassDefault], b.Collector().LatAcc[proto.ClassDefault]
	if la != lb {
		t.Fatalf("latency divergence: %+v vs %+v", la, lb)
	}
}

// TestNewAllocations pins what building a network costs the allocator. A
// switch carves each per-port and per-tile slice kind, its tile
// allocators' slices and its stash pools from one backing array apiece,
// its buffers hold their per-VC state in place, and a stash pool keeps no
// per-packet map; before that, New(SmallConfig()) made 61 026 allocations.
// The pin is a quarter of that.
func TestNewAllocations(t *testing.T) {
	const before = 61026
	n := testing.AllocsPerRun(3, func() {
		if _, err := New(core.SmallConfig()); err != nil {
			t.Fatal(err)
		}
	})
	if n > before/4 {
		t.Fatalf("New(SmallConfig()) makes %.0f allocations, more than a quarter of the %d it made when each switch allocated its slices one by one",
			n, before)
	}
	t.Logf("New(SmallConfig()): %.0f allocations (%d before)", n, before)
}
