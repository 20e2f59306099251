package harness

import (
	"stashsim/internal/core"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/stats"
)

// Ablations quantifies the design choices DESIGN.md calls out, on the
// end-to-end reliability configuration at full offered load (the regime
// where internal bandwidth and placement quality matter most):
//
//   - JSQ vs random stash placement (Section III-A's policy),
//   - the 1.3x internal speedup vs none (Section III-A's bandwidth fix),
//   - progressive adaptive vs minimal routing,
//   - two-bank interleaved port memory vs ideal multiported memory
//     (Section III-B).
//
// For each variant it reports saturation throughput, mean latency, and the
// stash-full stall count.
func Ablations(o *Options) (*stats.Table, error) {
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

	warm := o.scaleDur(8000)
	meas := o.scaleDur(16000)
	t := &stats.Table{Header: []string{"Variant", "Accepted", "MeanLatUS", "StashFullStalls", "BankConflicts"}}
	// Each ablation case is an independent design point.
	rows := make([][]string, len(cases))
	err := o.forEachPoint(len(cases), func(i int) error {
		a := cases[i]
		sp := o.point("ablations", i, core.StashE2E, 1.0, false)
		sp.Load, sp.MsgPkts = 1.0, 1
		n, err := o.network(&sp, a.mutate)
		if err != nil {
			return err
		}
		sp.Wire(n, sim.NewRNG(sp.Seed+4000))
		if err := sp.Warm(n, warm); err != nil {
			return err
		}
		n.Run(meas)
		c := n.Counters()
		var banks int64
		for _, s := range n.Switches {
			banks += s.BankConflicts()
		}
		// One internal cycle lasts RateNum/RateDen ns (the channel moves
		// one 10-byte flit per ns): 1/1.3 ns at the paper's speedup,
		// 1 ns at the 1.0x ablation.
		nsPerCycle := float64(n.Cfg.RateNum) / float64(n.Cfg.RateDen)
		rows[i] = []string{a.name,
			fmtF(n.NormalizedAccepted(meas), 3),
			fmtF(n.Collector().LatAcc[proto.ClassDefault].Mean()*nsPerCycle/1000, 3),
			fmtF(float64(c.StashFullStalls), 0),
			fmtF(float64(banks), 0)}
		o.logf("ablation %q: accepted=%.3f", a.name, n.NormalizedAccepted(meas))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, o.writeCSV("ablations", t)
}
