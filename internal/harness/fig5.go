package harness

import (
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/stats"
)

// Fig5 reproduces Figures 5a and 5b: uniform-random single-packet-message
// traffic with end-to-end reliability stashing, swept over offered load
// for the baseline and the 100/50/25% stash-capacity networks. It returns
// the latency-vs-load table (5a) and the offered-vs-accepted table (5b).
//
// Expected shape (paper): baseline, 100% and 50% curves are nearly
// identical, saturating near 90% (ACK bandwidth); 25% saturates early, at
// the Little's-law limit of its per-endpoint stash share (~75-78%).
func Fig5(o *Options) (*stats.Table, *stats.Table, error) {
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if o.Quick {
		loads = []float64{0.2, 0.5, 0.8, 1.0}
	}
	warm := o.scaleDur(10000)
	meas := o.scaleDur(25000)

	variants := e2eVariants
	lat := &stats.Table{Header: []string{"OfferedLoad"}}
	acc := &stats.Table{Header: []string{"OfferedLoad"}}
	for _, v := range variants {
		lat.Header = append(lat.Header, v.name)
		acc.Header = append(acc.Header, v.name)
	}

	// Every (load, variant) pair is an independent design point; fan them
	// out and assemble the tables in index order afterwards.
	type cell struct{ lat, acc string }
	cells := make([]cell, len(loads)*len(variants))
	err := o.forEachPoint(len(cells), func(i int) error {
		load := loads[i/len(variants)]
		v := variants[i%len(variants)]
		sp := o.point("fig5", i, v.mode, v.capFrac, false)
		sp.Load, sp.MsgPkts = load, 1
		n, err := o.network(&sp, nil)
		if err != nil {
			return err
		}
		sp.Wire(n, sim.NewRNG(sp.Seed+1000))
		if err := sp.Warm(n, warm); err != nil {
			return err
		}
		n.Run(meas)
		meanNS := n.Collector().LatAcc[proto.ClassDefault].Mean() / 1.3
		cells[i] = cell{fmtF(meanNS/1000, 3), fmtF(n.NormalizedAccepted(meas), 3)} // us
		o.logf("fig5 load=%.2f %s: lat=%.3fus acc=%.3f", load, v.name,
			meanNS/1000, n.NormalizedAccepted(meas))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for li, load := range loads {
		latRow := []string{fmtF(load, 2)}
		accRow := []string{fmtF(load, 2)}
		for vi := range variants {
			c := cells[li*len(variants)+vi]
			latRow = append(latRow, c.lat)
			accRow = append(accRow, c.acc)
		}
		lat.AddRow(latRow...)
		acc.AddRow(accRow...)
	}
	if err := o.writeCSV("fig5a_latency", lat); err != nil {
		return nil, nil, err
	}
	return lat, acc, o.writeCSV("fig5b_throughput", acc)
}
