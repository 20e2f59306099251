package harness

import (
	"stashsim/internal/core"
	"stashsim/internal/network"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/traffic"
)

// fig9 declares Figure 9: victim 90th-percentile latency when sharing
// the network with a bursty "bandwidth hog". The victim runs uniform
// random at 40% load on half the endpoints; the aggressor runs uniform
// random at maximum rate on the other half, with message sizes swept from
// 1 to 512 packets per message. ECN is enabled everywhere.
//
// Expected shape (paper): the stash networks stay flat and always below
// the baseline; the baseline's tail latency climbs with burst size,
// peaking at intermediate bursts (congestion too brief for ECN, too long
// to ignore) before ECN's steady state recovers it at the largest sizes.
func fig9(o *Options) *grid {
	bursts := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	if o.Quick {
		bursts = []int{1, 8, 64, 512}
	}
	return &grid{
		rows:     labels("%d", bursts),
		variants: congVariants,
		warm:     o.scaleDur(usToCycles(8)),
		meas:     o.scaleDur(usToCycles(25)),
		tables: []gridTable{{Output{Title: "Figure 9: victim p90 latency vs aggressor burst size", File: "fig9_burst",
			Plot: &Plot{Title: "Fig 9 (shape)", XLabel: "burst pkts", YLabel: "victim p90 us", Y: []int{1, 2, 3}}},
			"BurstPkts", []string{" p90us"}}},
		point: func(sp *Spec, row, _ int) func(*core.Config) {
			sp.Load, sp.MsgPkts = 0.4, bursts[row] // the victims' load, the aggressors' messages
			return nil
		},
		wire: func(sp *Spec, n *network.Network) {
			n.Collectors.WithHist(proto.ClassVictim)
			rng := sim.NewRNG(sp.Seed + 3000)
			rate := n.ChannelRate()
			half := len(n.Endpoints) / 2
			victims := make([]int32, 0, half)
			aggressors := make([]int32, 0, half)
			// Interleave halves so both classes spread over all switches.
			for _, ep := range n.Endpoints {
				if ep.ID%2 == 0 {
					victims = append(victims, ep.ID)
				} else {
					aggressors = append(aggressors, ep.ID)
				}
			}
			for _, ep := range n.Endpoints {
				r := rng.Derive(uint64(ep.ID))
				if ep.ID%2 == 0 {
					ep.Gen = traffic.Uniform(r, len(n.Endpoints), victims,
						sp.Load, rate, proto.MaxPacketFlits, proto.ClassVictim, 0)
				} else {
					ep.Gen = traffic.Saturating(r, len(n.Endpoints), aggressors,
						sp.MsgPkts*proto.MaxPacketFlits, proto.ClassAggressor, 0, 0)
				}
				ep.GenRNG = r
			}
		},
		cells: func(n *network.Network, _ *Summary) []string {
			h := n.Collector().LatHist[proto.ClassVictim]
			return []string{fmtF(float64(h.Percentile(90))/1.3/1000, 3)}
		},
	}
}
