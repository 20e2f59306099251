package network

import (
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/topo"
	"stashsim/internal/traffic"
)

// TestTopologyShapeSweep builds dragonflies of assorted shapes — including
// radixes that do not divide evenly into the tile array (padding) — and
// checks the conservation property on each: after generators stop, every
// offered flit is delivered.
func TestTopologyShapeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	shapes := []struct {
		p, a, h               int
		rows, cols, tin, tout int
		mode                  core.StashMode
	}{
		{2, 3, 2, 2, 2, 3, 3, core.StashOff},        // radix 6, exact tiling
		{2, 4, 2, 4, 4, 2, 2, core.StashE2E},        // radix 7, padded
		{1, 5, 2, 3, 3, 3, 3, core.StashE2E},        // radix 7, single endpoint/switch
		{3, 5, 1, 2, 4, 4, 2, core.StashCongestion}, // radix 8, asymmetric tiles
		{2, 2, 3, 3, 2, 2, 3, core.StashOff},        // radix 6, more globals than locals
	}
	for _, sh := range shapes {
		cfg := core.TinyConfig()
		cfg.Topo = topo.Dragonfly{P: sh.p, A: sh.a, H: sh.h}
		cfg.Rows, cfg.Cols, cfg.TileIn, cfg.TileOut = sh.rows, sh.cols, sh.tin, sh.tout
		cfg.Mode = sh.mode
		if sh.mode == core.StashCongestion {
			cfg.ECN = core.DefaultECN()
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatalf("shape %+v: %v", sh, err)
		}
		n.Observe(NewInvariants(n, 64))
		rng := sim.NewRNG(uint64(sh.p*100 + sh.a*10 + sh.h))
		rate := n.ChannelRate()
		for _, ep := range n.Endpoints {
			ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
				0.3, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
		}
		n.Run(8000)
		for _, ep := range n.Endpoints {
			ep.Gen = nil
		}
		if !n.RunUntil(200000, 2000, func() bool {
			return n.Collectors.TotalDeliveredFlits() == n.Collectors.TotalOfferedFlits()
		}) {
			t.Fatalf("shape %+v: delivered %d of %d after drain", sh,
				n.Collectors.TotalDeliveredFlits(), n.Collectors.TotalOfferedFlits())
		}
		if err := n.SanityCheck(); err != nil {
			t.Fatalf("shape %+v: %v", sh, err)
		}
	}
}

// TestSeedSweepDeterminismAndDelivery runs several seeds through a short
// e2e-mode simulation; each must deliver everything and distinct seeds
// must explore distinct schedules.
func TestSeedSweepDeliveryAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	var delivered []int64
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := core.TinyConfig()
		cfg.Mode = core.StashE2E
		cfg.Seed = seed
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Observe(NewInvariants(n, 64))
		rng := sim.NewRNG(seed * 997)
		rate := n.ChannelRate()
		for _, ep := range n.Endpoints {
			ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
				0.4, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
		}
		n.Run(10000)
		for _, ep := range n.Endpoints {
			ep.Gen = nil
		}
		if !n.RunUntil(200000, 2000, func() bool {
			return n.Collectors.TotalDeliveredFlits() == n.Collectors.TotalOfferedFlits()
		}) {
			t.Fatalf("seed %d: not all flits delivered", seed)
		}
		delivered = append(delivered, n.Collectors.TotalDeliveredFlits())
	}
	allSame := true
	for _, d := range delivered[1:] {
		if d != delivered[0] {
			allSame = false
		}
	}
	if allSame {
		t.Fatalf("all seeds produced identical workloads: %v", delivered)
	}
}
