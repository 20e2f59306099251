package endpoint_test

import (
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/network"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/traffic"
)

// TestEndpointStateFollowsBacklog: an endpoint holds a send queue only
// while it has packets for that destination, and an ECN window only while
// it differs from a fresh one. A small congestion-stashing network with
// ECN runs victims at 40 % load beside two 4:1 hotspots, and then drains;
// loaded and drained, every endpoint's queues are its active list, and no
// window it holds equals a fresh one.
func TestEndpointStateFollowsBacklog(t *testing.T) {
	cfg := core.SmallConfig()
	cfg.Mode = core.StashCongestion
	cfg.ECN = core.DefaultECN()
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	rng := sim.NewRNG(3)
	hot := map[int32]int32{20: 7, 30: 7, 40: 7, 50: 7, 220: 200, 230: 200, 240: 200, 250: 200} // aggressor -> hotspot
	for _, ep := range n.Endpoints {
		switch dst, ok := hot[ep.ID]; {
		case ep.ID == 7 || ep.ID == 200:
		case ok:
			ep.Gen = traffic.Hotspot(dst, proto.MaxPacketFlits, proto.ClassAggressor, 0)
		default:
			ep.GenRNG = rng.Derive(uint64(ep.ID))
			ep.Gen = traffic.Uniform(ep.GenRNG, len(n.Endpoints), nil,
				0.4, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassVictim, 0)
		}
	}
	check := func(when string) (queues, windows int) {
		t.Helper()
		for _, ep := range n.Endpoints {
			q, active, w, fresh := ep.HeldState()
			if q != active {
				t.Errorf("%s: endpoint %d holds %d send queues for %d active destinations", when, ep.ID, q, active)
			}
			if fresh > 0 {
				t.Errorf("%s: endpoint %d holds %d ECN windows equal to a fresh one", when, ep.ID, fresh)
			}
			queues += q
			windows += w
		}
		return queues, windows
	}
	n.Run(3000)
	if q, w := check("loaded"); q == 0 || w == 0 {
		t.Fatalf("loaded: %d send queues and %d ECN windows held; the check would show nothing", q, w)
	}
	for _, ep := range n.Endpoints {
		ep.Gen = nil
	}
	if !n.Drain(200_000) {
		t.Fatal("the network did not drain")
	}
	if q, _ := check("drained"); q != 0 {
		t.Errorf("drained: %d send queues held", q)
	}
}
