package harness

import (
	"slices"

	"stashsim/internal/endpoint"
	"stashsim/internal/network"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/stats"
	"stashsim/internal/traffic"
)

// hotspotScenario wires the Figure 7 workload onto a network: a victim
// uniform-random pattern at 40% load on all non-aggressor endpoints, and
// an aggressor of 4:1 oversubscribed hotspots (4 sources streaming to each
// of `spots` destinations at maximum rate) activating at `start`.
type hotspotScenario struct {
	n      *network.Network
	dsts   []int32
	srcs   []int32
	spotSw int // switch of the first hotspot destination
}

func newHotspot(o *Options, sp *Spec, start sim.Tick) (*hotspotScenario, error) {
	n, err := o.network(sp, nil)
	if err != nil {
		return nil, err
	}
	d := n.Cfg.Topo
	rng := sim.NewRNG(sp.Seed + 2000)
	// Scale the paper's 48-source/12-destination aggressor with network
	// size: one hotspot destination per ~256 endpoints, at least 2.
	spots := len(n.Endpoints) / 256
	if spots < 2 {
		spots = 2
	}
	srcPer := 4
	// Spread hotspot destinations across distinct groups: pick endpoint 0
	// of the first switch of evenly spaced groups.
	sc := &hotspotScenario{n: n}
	groups := d.Groups()
	for i := 0; i < spots; i++ {
		g := (i*groups)/spots + 1
		if g >= groups {
			g -= groups
		}
		sw := d.SwitchID(g%groups, 0)
		sc.dsts = append(sc.dsts, int32(d.EndpointID(sw, 0)))
	}
	sc.spotSw, _ = d.EndpointSwitch(int(sc.dsts[0]))
	isDst := make(map[int32]bool, len(sc.dsts))
	for _, dst := range sc.dsts {
		isDst[dst] = true
	}
	// Aggressor sources: evenly spaced endpoints that are neither hotspot
	// destinations nor on a hotspot switch.
	isSrc := make(map[int32]bool)
	step := len(n.Endpoints) / (spots*srcPer + 1)
	if step < 1 {
		step = 1
	}
	for i := 0; len(sc.srcs) < spots*srcPer; i += step {
		id := int32(i % len(n.Endpoints))
		for isDst[id] || isSrc[id] {
			id = (id + 1) % int32(len(n.Endpoints))
		}
		isSrc[id] = true
		sc.srcs = append(sc.srcs, id)
	}
	rate := n.ChannelRate()
	k := 0
	for _, ep := range n.Endpoints {
		switch {
		case isSrc[ep.ID]:
			dst := sc.dsts[k%len(sc.dsts)]
			k++
			ep.Gen = traffic.Hotspot(dst, proto.MaxPacketFlits, proto.ClassAggressor, start)
		case isDst[ep.ID]:
			// Hotspot destinations only receive.
		default:
			gen := rng.Derive(uint64(ep.ID))
			ep.Gen = traffic.Uniform(gen, len(n.Endpoints), nil,
				0.4, rate, proto.MaxPacketFlits, proto.ClassVictim, 0)
			ep.GenRNG = gen
		}
	}
	o.logf("fig7 scenario: %d hotspots x %d sources on %d endpoints (spot switch %d)",
		spots, srcPer, len(n.Endpoints), sc.spotSw)
	return sc, nil
}

// fig7 reproduces Figures 7a, 7b and 8: the transient response of an
// ECN-controlled network to the onset of a 4:1 hotspot aggressor, with and
// without congestion stashing, plus a no-aggressor baseline reference for
// the latency distribution.
//
// Expected shape (paper): at aggressor onset the baseline victim's mean
// latency spikes and its distribution grows a long tail; stashing absorbs
// the transient (flatter time series, tail cut to a few times the best
// case, more with 100% than 50% capacity); the hotspot switch's stash
// fills at onset and drains once ECN throttles the aggressor's offered
// load from ~4 to ~1 flit/cycle.
func fig7(o *Options) ([]Output, error) {
	start := o.scaleDur(usToCycles(20))
	total := o.scaleDur(usToCycles(100))
	bin := usToCycles(1)
	if o.Quick {
		bin = usToCycles(0.5)
	}

	type runOut struct {
		name   string
		series *stats.TimeSeries
		hist   *stats.Hist
		stash  []float64 // per-bin stash utilization of the hotspot switch
		agg    []float64 // per-bin aggressor offered load (flits/channel-cycle)
	}

	// The no-aggressor reference of Fig 7b, a baseline whose aggressor never
	// starts, and the three ECN variants are four independent design points;
	// runs[i] holds point i.
	ref := congVariants[0]
	ref.name = "Baseline w/o Aggressor"
	points := append([]variant{ref}, congVariants...)
	runs := make([]runOut, len(points))
	err := o.forEachPoint(len(points), func(i int) error {
		v, onset := points[i], start
		if i == 0 {
			onset = 1 << 62 // never: the reference
		}
		sp := o.point("fig7", i, v)
		sc, err := newHotspot(o, &sp, onset)
		if err != nil {
			return err
		}
		n := sc.n
		n.Collectors.WithHist(proto.ClassVictim)
		n.Collectors.WithSeries(proto.ClassVictim, bin)

		// Fig 8 probes on the first hotspot switch: stash utilization and
		// the offered load of its four aggressor sources.
		spotSw := n.Switches[sc.spotSw]
		var stashUtil, aggLoad []float64
		var lastSent int64
		srcsOfSpot := make([]*endpoint.Endpoint, 0, 4)
		for si, src := range sc.srcs {
			if sc.dsts[si%len(sc.dsts)] == sc.dsts[0] {
				srcsOfSpot = append(srcsOfSpot, n.Endpoints[src])
			}
		}
		probe := func() {
			capTotal := spotSw.StashCapTotal()
			util := 0.0
			if capTotal > 0 {
				util = float64(spotSw.StashUsed()) / float64(capTotal)
			}
			var sent int64
			for _, ep := range srcsOfSpot {
				sent += ep.SentFlits
			}
			perCycle := float64(sent-lastSent) / float64(bin) / n.ChannelRate()
			lastSent = sent
			stashUtil = append(stashUtil, util)
			aggLoad = append(aggLoad, perCycle)
		}
		for t := int64(0); t < total; t += bin {
			n.Run(bin)
			probe()
		}
		c := n.Collector()
		runs[i] = runOut{v.name, c.Series[proto.ClassVictim],
			c.LatHist[proto.ClassVictim], stashUtil, aggLoad}
		o.logf("fig7 %s: victim mean=%.0fns p99=%.0fns stashPeak=%.2f",
			v.name, c.LatAcc[proto.ClassVictim].Mean()/1.3,
			float64(runs[i].hist.Percentile(99))/1.3, slices.Max(stashUtil))
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Fig 7a table.
	series := &stats.Table{Header: []string{"TimeUS"}}
	for _, r := range runs[1:] {
		series.Header = append(series.Header, r.name)
	}
	bins := 0
	for _, r := range runs[1:] {
		if len(r.series.Bins()) > bins {
			bins = len(r.series.Bins())
		}
	}
	for b := 0; b < bins; b++ {
		row := []string{fmtF(cyclesToUS(int64(b)*bin), 1)}
		for _, r := range runs[1:] {
			v := 0.0
			if b < len(r.series.Bins()) && r.series.Bins()[b].N > 0 {
				v = r.series.Bins()[b].Mean() / 1.3 / 1000 // us
			}
			row = append(row, fmtF(v, 3))
		}
		series.AddRow(row...)
	}

	// Fig 7b tables: the inverse CDF at fixed fractions, and the full curves
	// as CSV (one file, long format).
	inv := &stats.Table{Header: []string{"Network", "p50ns", "p90ns", "p99ns", "p99.9ns", "p99.99ns", "maxns"}}
	curves := &stats.Table{Header: []string{"Network", "LatencyNS", "FractionAbove"}}
	for _, r := range runs {
		inv.AddRow(r.name,
			fmtF(float64(r.hist.Percentile(50))/1.3, 0),
			fmtF(float64(r.hist.Percentile(90))/1.3, 0),
			fmtF(float64(r.hist.Percentile(99))/1.3, 0),
			fmtF(float64(r.hist.Percentile(99.9))/1.3, 0),
			fmtF(float64(r.hist.Percentile(99.99))/1.3, 0),
			fmtF(r.hist.Max()/1.3, 0))
		for _, p := range r.hist.InverseCDF() {
			curves.AddRow(r.name, fmtF(float64(p.Value)/1.3, 0), fmtF(p.Fraction, 8))
		}
	}

	// Fig 8 table.
	stash := &stats.Table{Header: []string{"TimeUS"}}
	for _, r := range runs[2:] { // stash networks only
		stash.Header = append(stash.Header, r.name+" Util", r.name+" AggLoad")
	}
	for b := 0; b < bins; b++ {
		row := []string{fmtF(cyclesToUS(int64(b)*bin), 1)}
		for _, r := range runs[2:] {
			u, a := 0.0, 0.0
			if b < len(r.stash) {
				u, a = r.stash[b], r.agg[b]
			}
			row = append(row, fmtF(u, 4), fmtF(a, 3))
		}
		stash.AddRow(row...)
	}

	return []Output{
		{Title: "Figure 7a: victim latency over time (us)", File: "fig7a_series", Table: series,
			Plot: &Plot{Title: "Fig 7a (shape)", XLabel: "time us", YLabel: "victim latency us", Y: []int{1, 2, 3}}},
		{File: "fig7b_invcdf", Table: curves},
		{Title: "Figure 7b: victim latency distribution percentiles (ns)", File: "fig7b_percentiles", Table: inv},
		{Title: "Figure 8: hotspot switch stash utilization & aggressor load", File: "fig8_stash", Table: stash,
			Plot: &Plot{Title: "Fig 8 (shape)", XLabel: "time us", YLabel: "util / load", Y: []int{1, 2}}},
	}, nil
}
