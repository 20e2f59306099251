package harness

import (
	"fmt"

	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/stats"
	"stashsim/internal/traffic"
)

// Fig9 reproduces Figure 9: victim 90th-percentile latency when sharing
// the network with a bursty "bandwidth hog". The victim runs uniform
// random at 40% load on half the endpoints; the aggressor runs uniform
// random at maximum rate on the other half, with message sizes swept from
// 1 to 512 packets per message. ECN is enabled everywhere.
//
// Expected shape (paper): the stash networks stay flat and always below
// the baseline; the baseline's tail latency climbs with burst size,
// peaking at intermediate bursts (congestion too brief for ECN, too long
// to ignore) before ECN's steady state recovers it at the largest sizes.
func Fig9(o *Options) (*stats.Table, error) {
	bursts := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	if o.Quick {
		bursts = []int{1, 8, 64, 512}
	}
	warm := o.scaleDur(usToCycles(8))
	meas := o.scaleDur(usToCycles(25))

	variants := congVariants
	t := &stats.Table{Header: []string{"BurstPkts"}}
	for _, v := range variants {
		t.Header = append(t.Header, v.name+" p90us")
	}

	// Every (burst, variant) pair is an independent design point.
	cells := make([]string, len(bursts)*len(variants))
	err := o.forEachPoint(len(cells), func(i int) error {
		b := bursts[i/len(variants)]
		v := variants[i%len(variants)]
		sp := o.point("fig9", i, v.mode, v.capFrac, true)
		n, err := o.network(&sp, nil)
		if err != nil {
			return err
		}
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
					0.4, rate, proto.MaxPacketFlits, proto.ClassVictim, 0)
			} else {
				ep.Gen = traffic.Saturating(r, len(n.Endpoints), aggressors,
					b*proto.MaxPacketFlits, proto.ClassAggressor, 0, 0)
			}
			ep.GenRNG = r
		}
		if err := sp.Warm(n, warm); err != nil {
			return err
		}
		n.Run(meas)
		c := n.Collector()
		h := c.LatHist[proto.ClassVictim]
		p90us := float64(h.Percentile(90)) / 1.3 / 1000
		cells[i] = fmtF(p90us, 3)
		o.logf("fig9 burst=%d %s: victim p90=%.3fus mean=%.3fus acceptedV=%.3f",
			b, v.name, p90us,
			c.LatAcc[proto.ClassVictim].Mean()/1.3/1000,
			float64(c.DeliveredFlits[proto.ClassVictim])/float64(meas)/float64(half)/rate)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi, b := range bursts {
		row := []string{fmt.Sprint(b)}
		for vi := range variants {
			row = append(row, cells[bi*len(variants)+vi])
		}
		t.AddRow(row...)
	}
	return t, o.writeCSV("fig9_burst", t)
}
