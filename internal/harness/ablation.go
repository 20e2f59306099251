package harness

import (
	"stashsim/internal/core"
	"stashsim/internal/network"
	"stashsim/internal/proto"
)

// ablations declares the sweep over the design choices DESIGN.md calls
// out, on the end-to-end reliability configuration at full offered load
// (the regime where internal bandwidth and placement quality matter most):
//
//   - JSQ vs random stash placement (Section III-A's policy),
//   - the 1.3x internal speedup vs none (Section III-A's bandwidth fix),
//   - progressive adaptive vs minimal routing,
//   - two-bank interleaved port memory vs ideal multiported memory
//     (Section III-B).
//
// For each variant it reports saturation throughput, mean latency, and the
// stash-full stall count.
func ablations(o *Options) *grid {
	type ablation struct {
		name   string
		mutate func(*core.Config)
	}
	cases := []ablation{
		{"reference (JSQ, 1.3x, adaptive, ideal mem)", nil},
		{"random stash placement", func(c *core.Config) { c.RandomStashPlacement = true }},
		{"no internal speedup (1.0x)", func(c *core.Config) {
			c.RateNum, c.RateDen = 1, 1
			c.Lat.Endpoint = c.Lat.Endpoint * 10 / 13
			c.Lat.Local = c.Lat.Local * 10 / 13
			c.Lat.Global = c.Lat.Global * 10 / 13
		}},
		{"minimal routing", func(c *core.Config) { c.Route.Adaptive = false }},
		{"two-bank port memory", func(c *core.Config) { c.BankModel = true }},
		{"25% capacity + JSQ", func(c *core.Config) { c.StashCapFrac = 0.25 }},
		{"25% capacity + random placement", func(c *core.Config) {
			c.StashCapFrac = 0.25
			c.RandomStashPlacement = true
		}},
	}
	var rows []string
	for _, a := range cases {
		rows = append(rows, a.name)
	}
	return &grid{
		rows:     rows,
		variants: []variant{{mode: core.StashE2E, capFrac: 1.0}},
		warm:     o.scaleDur(8000),
		meas:     o.scaleDur(16000),
		tables: []gridTable{{Output{Title: "Ablations: design-choice sensitivity at full load (e2e stashing)", File: "ablations"},
			"Variant", []string{"Accepted", "MeanLatUS", "StashFullStalls", "BankConflicts"}}},
		point: func(sp *Spec, row, _ int) func(*core.Config) {
			sp.Load, sp.MsgPkts = 1.0, 1
			return cases[row].mutate
		},
		wire: uniformWire(4000),
		cells: func(n *network.Network, s *Summary) []string {
			var banks int64
			for _, sw := range n.Switches {
				banks += sw.BankConflicts()
			}
			// One internal cycle lasts RateNum/RateDen ns (the channel moves
			// one 10-byte flit per ns): 1/1.3 ns at the paper's speedup,
			// 1 ns at the 1.0x ablation.
			nsPerCycle := float64(n.Cfg.RateNum) / float64(n.Cfg.RateDen)
			return []string{
				fmtF(s.Accepted, 3),
				fmtF(n.Collector().LatAcc[proto.ClassDefault].Mean()*nsPerCycle/1000, 3),
				fmtF(float64(s.Counters.StashFullStalls), 0),
				fmtF(float64(banks), 0)}
		},
	}
}
