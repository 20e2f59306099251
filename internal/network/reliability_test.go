package network

import (
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/traffic"
)

// TestRetransmissionRecoversFromErrors exercises the paper's end-to-end
// retransmission mechanism end to end (the extension the paper describes
// but does not simulate): destinations NACK a fraction of packets, the
// first-hop switch re-injects the stashed copy, and every message is
// eventually delivered exactly as many times as it was NACK-free.
func TestRetransmissionRecoversFromErrors(t *testing.T) {
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	cfg.RetainPayload = true
	cfg.ErrorRate = 0.05
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Observe(NewInvariants(n, 16))
	rng := sim.NewRNG(21)
	rate := n.ChannelRate()
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			0.15, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	n.Run(20000)
	for _, ep := range n.Endpoints {
		ep.Gen = nil
	}
	ok := n.RunUntil(300000, 2000, func() bool {
		if n.TotalStashUsed() != 0 || n.TotalQueuedFlits() != 0 {
			return false
		}
		for _, s := range n.Switches {
			if s.TrackedPackets() != 0 {
				return false
			}
		}
		return true
	})
	c := n.Counters()
	if !ok {
		t.Fatalf("network did not quiesce: stash=%d queued=%d counters=%+v",
			n.TotalStashUsed(), n.TotalQueuedFlits(), c)
	}
	if n.Collector().Errors == 0 {
		t.Fatal("no errors were injected")
	}
	if c.E2ERetransmits == 0 {
		t.Fatal("no retransmissions occurred")
	}
	// Every tracked packet must eventually be deleted after a positive
	// ACK — deletes equal tracked packets exactly once the system drains.
	if c.E2EDeletes != c.E2ETracked {
		t.Fatalf("tracked %d packets but deleted %d copies", c.E2ETracked, c.E2EDeletes)
	}
	t.Logf("errors=%d retransmits=%d tracked=%d", n.Collector().Errors, c.E2ERetransmits, c.E2ETracked)
}

// TestFlitConservation verifies no flits are created or lost: everything
// injected is eventually delivered once generators stop.
func TestFlitConservation(t *testing.T) {
	for _, mode := range []core.StashMode{core.StashOff, core.StashE2E, core.StashCongestion} {
		cfg := core.TinyConfig()
		cfg.Mode = mode
		if mode == core.StashCongestion {
			cfg.ECN = core.DefaultECN()
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(31)
		rate := n.ChannelRate()
		for _, ep := range n.Endpoints {
			ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
				0.35, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
		}
		n.Run(15000)
		for _, ep := range n.Endpoints {
			ep.Gen = nil
		}
		if !n.RunUntil(300000, 2000, func() bool {
			return n.Collectors.TotalDeliveredFlits() == n.Collectors.TotalOfferedFlits()
		}) {
			t.Fatalf("mode %v: delivered %d of %d offered flits after drain",
				mode, n.Collectors.TotalDeliveredFlits(), n.Collectors.TotalOfferedFlits())
		}
	}
}

// TestAdversarialPermutationNoDeadlock drives a permutation pattern (every
// endpoint hammers one partner) at full load — the worst case for wormhole
// deadlock — and checks the network keeps making progress.
func TestAdversarialPermutationNoDeadlock(t *testing.T) {
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(41)
	rate := n.ChannelRate()
	num := len(n.Endpoints)
	perm := rng.Perm(num)
	// Make it a derangement pairing.
	for i, p := range perm {
		if p == i {
			j := (i + 1) % num
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Permutation(rng.Derive(uint64(ep.ID)), int32(perm[ep.ID]),
			1.0, rate, 10*proto.MaxPacketFlits, proto.ClassDefault)
	}
	last := int64(0)
	for i := 0; i < 10; i++ {
		n.Run(3000)
		cur := n.Collectors.TotalDeliveredFlits()
		if cur == last && i > 1 {
			t.Fatalf("no progress in window %d: %s", i, n.Switches[0].DumpState())
		}
		last = cur
	}
	if err := n.SanityCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestBankModelRuns verifies the two-bank memory gate does not deadlock
// the switch, and that the four-port scenario (send read + retrieval read
// + mux writes on one port memory) produces measurable conflicts under
// congestion stashing — the case Section III-B's banking resolves.
func TestBankModelRuns(t *testing.T) {
	// E2E mode first: writes can always divert to the free bank, so a
	// read+write workload should see (almost) no stalls.
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	cfg.BankModel = true
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(51)
	rate := n.ChannelRate()
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			0.5, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	n.Run(15000)
	if n.Collectors.TotalDeliveredFlits() == 0 {
		t.Fatal("bank-modeled network delivered nothing")
	}

	// Congestion mode: retrieval reads contend with transmission reads
	// on the output memory; conflicts must occur and be survivable.
	var conflicts int64
	cfg2 := core.TinyConfig()
	cfg2.Mode = core.StashCongestion
	cfg2.ECN = core.DefaultECN()
	cfg2.BankModel = true
	n2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	rng2 := sim.NewRNG(99)
	hot := int32(7)
	srcs := map[int32]bool{20: true, 30: true, 40: true, 50: true}
	for _, ep := range n2.Endpoints {
		if srcs[ep.ID] {
			ep.Gen = traffic.Hotspot(hot, proto.MaxPacketFlits, proto.ClassAggressor, 1000)
		} else if ep.ID != hot {
			ep.Gen = traffic.Uniform(rng2.Derive(uint64(ep.ID)), len(n2.Endpoints), nil,
				0.3, rate, proto.MaxPacketFlits, proto.ClassVictim, 0)
		}
	}
	n2.Run(30000)
	for _, s := range n2.Switches {
		conflicts += s.BankConflicts()
	}
	if n2.Counters().StashRetrieves == 0 {
		t.Skip("no retrievals in this run")
	}
	t.Logf("bank conflicts under congestion stashing: %d", conflicts)
	if conflicts == 0 {
		t.Fatal("no bank conflicts despite concurrent send and retrieval reads")
	}
}

// TestEndpointPortsNeverCongest checks a modeling invariant: ejection-side
// stash absorption never pushes flits back into the network (retrieval
// strictly drains toward the original output).
func TestCongestionRetrievalTargetsOriginalOutput(t *testing.T) {
	n := buildHotspot(t, core.StashCongestion, 1000)
	n.Run(30000)
	c := n.Counters()
	if c.CongStashed == 0 {
		t.Skip("no congestion stashing in this run")
	}
	// Retrieved flits equal stored flits minus still-resident ones
	// (excluding reservations for packets still crossing the crossbar,
	// whose flits have not been counted as stores yet).
	resident := int64(n.TotalStashUsed())
	var reserved int64
	for _, s := range n.Switches {
		reserved += int64(s.StashReserved())
	}
	if c.StashRetrieves+resident-reserved != c.StashStores {
		t.Fatalf("flit leak in stash: stored %d, retrieved %d, resident %d, reserved %d",
			c.StashStores, c.StashRetrieves, resident, reserved)
	}
}
