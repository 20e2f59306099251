package harness

import (
	"stashsim/internal/core"
	"stashsim/internal/network"
)

// fig5 declares Figures 5a and 5b: uniform-random single-packet-message
// traffic with end-to-end reliability stashing, swept over offered load
// for the baseline and the 100/50/25% stash-capacity networks, giving the
// latency-vs-load table (5a) and the offered-vs-accepted table (5b).
//
// Expected shape (paper): baseline, 100% and 50% curves are nearly
// identical, saturating near 90% (ACK bandwidth); 25% saturates early, at
// the Little's-law limit of its per-endpoint stash share (~75-78%).
func fig5(o *Options) *grid {
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if o.Quick {
		loads = []float64{0.2, 0.5, 0.8, 1.0}
	}
	perNetwork := []int{1, 2, 3, 4}
	return &grid{
		rows:     labels("%.2f", loads),
		variants: e2eVariants,
		warm:     o.scaleDur(10000),
		meas:     o.scaleDur(25000),
		tables: []gridTable{
			{Output{Title: "Figure 5a: latency vs offered load (us)", File: "fig5a_latency",
				Plot: &Plot{Title: "Fig 5a (shape)", XLabel: "offered load", YLabel: "latency us", Y: perNetwork}},
				"OfferedLoad", []string{""}},
			{Output{Title: "Figure 5b: offered vs accepted throughput", File: "fig5b_throughput",
				Plot: &Plot{Title: "Fig 5b (shape)", XLabel: "offered load", YLabel: "accepted", Y: perNetwork}},
				"OfferedLoad", []string{""}},
		},
		point: func(sp *Spec, row, _ int) func(*core.Config) {
			sp.Load, sp.MsgPkts = loads[row], 1
			return nil
		},
		wire: uniformWire(1000),
		cells: func(_ *network.Network, s *Summary) []string {
			return []string{fmtF(s.Latency.MeanNS/1000, 3), fmtF(s.Accepted, 3)} // us
		},
	}
}
