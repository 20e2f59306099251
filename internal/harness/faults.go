package harness

import (
	"fmt"

	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/network"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/stats"
	"stashsim/internal/traffic"
)

// Faults quantifies the recovery ladder of the fault-injection extension:
// under a sweep of per-link packet-drop rates, it compares stash-local
// recovery (StashE2E, where the first-hop stash retransmits from its
// retained copy on an ACK timeout) against source-endpoint recovery (the
// stashless baseline, where only the source's ACK timer can resend). The
// stash sits one hop from the source with a much shorter timeout, so its
// mean loss-to-delivery recovery latency should be well below the
// endpoint's — that gap is the supplemental-storage argument of the paper
// extended to reliability.
//
// Every variant's plan also fires four staggered stash-bank failures
// mid-measure. Under the stashless baseline they are no-ops; under plain
// StashLocal each invalidated copy silently degrades its packet to the
// endpoint ladder; under StashParity (the erasure-coded tier, k=4) the
// lost copies rebuild from parity-group survivors, keeping recovery
// stash-local — the _Recon column counts those rebuilds.
//
// Every run drains fully and asserts exactly-once delivery; a row is an
// error if any variant loses or double-delivers a packet.
func Faults(o *Options) (*stats.Table, error) {
	rates := []float64{1e-4, 5e-4, 1e-3, 5e-3, 1e-2}
	if o.Quick {
		rates = []float64{1e-3, 5e-3}
	}
	warm := o.scaleDur(5000)
	meas := o.scaleDur(20000)
	const drainBudget = 2_000_000

	// Four bank failures on distinct switches, staggered through the
	// middle of the measured window (every preset has >= 4 switches).
	var fails []fault.StashFail
	for i := 0; i < 4; i++ {
		fails = append(fails, fault.StashFail{
			Switch: i, Port: 0, At: warm + meas/4 + int64(i)*meas/8})
	}

	type variant struct {
		name   string
		mode   core.StashMode
		parity int
	}
	variants := []variant{
		{"StashLocal", core.StashE2E, 0},
		{"StashParity", core.StashE2E, 4},
		{"Endpoint", core.StashOff, 0},
	}

	t := &stats.Table{Header: []string{"DropRate"}}
	for _, v := range variants {
		t.Header = append(t.Header,
			v.name+"_RecLat_us", v.name+"_Recovered", v.name+"_Resends", v.name+"_Dups",
			v.name+"_Recon")
	}

	// Every (rate, variant) pair is an independent design point producing
	// five table cells.
	cells := make([][5]string, len(rates)*len(variants))
	err := o.forEachPoint(len(cells), func(i int) error {
		rate := rates[i/len(variants)]
		v := variants[i%len(variants)]
		{
			cfg, err := o.netConfig(v.mode, 1.0, false)
			if err != nil {
				return err
			}
			cfg.Retrans = core.DefaultRetrans()
			if v.mode == core.StashE2E {
				cfg.RetainPayload = true
			}
			cfg.StashParity = v.parity
			cfg.Fault = &fault.Plan{Seed: cfg.Seed + 101, LinkDropRate: rate,
				StashFailures: fails}
			n := o.mustNet(cfg)
			rng := sim.NewRNG(cfg.Seed + 2000)
			chRate := n.ChannelRate()
			for _, ep := range n.Endpoints {
				gen := rng.Derive(uint64(ep.ID))
				ep.Gen = traffic.Uniform(gen, len(n.Endpoints), nil,
					0.2, chRate, proto.MaxPacketFlits, proto.ClassDefault, 0)
				ep.GenRNG = gen
			}
			if err := o.warm(n, "faults", i, warm); err != nil {
				return err
			}
			n.Run(meas)
			for _, ep := range n.Endpoints {
				ep.Gen = nil
			}
			if !n.Drain(drainBudget) {
				return fmt.Errorf("faults: %s at rate %.0e did not drain in %d cycles",
					v.name, rate, int64(drainBudget))
			}
			if err := assertExactlyOnce(n); err != nil {
				return fmt.Errorf("faults: %s at rate %.0e: %w", v.name, rate, err)
			}
			c := n.Collector()
			nc := n.Counters()
			recUS := c.RecoveryAcc.Mean() / 1300 // cycles -> us
			resends := nc.E2ERetransmits + c.EndpointRetransmits
			cells[i] = [5]string{
				fmtF(recUS, 2),
				fmt.Sprintf("%d", c.RecoveredPkts),
				fmt.Sprintf("%d", resends),
				fmt.Sprintf("%d", c.DuplicatesSuppressed),
				fmt.Sprintf("%d", nc.StashReconstructed)}
			o.logf("faults rate=%.0e %s: recovered=%d recLat=%.2fus resends=%d recon=%d",
				rate, v.name, c.RecoveredPkts, recUS, resends, nc.StashReconstructed)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ri, rate := range rates {
		row := []string{fmt.Sprintf("%.0e", rate)}
		for vi := range variants {
			row = append(row, cells[ri*len(variants)+vi][:]...)
		}
		t.AddRow(row...)
	}
	return t, o.writeCSV("faults_recovery", t)
}

// assertExactlyOnce verifies the drained network delivered every injected
// packet exactly once.
func assertExactlyOnce(n *network.Network) error {
	injected, delivered, _, abandoned := n.DeliveryTotals()
	if abandoned != 0 {
		return fmt.Errorf("%d packets abandoned", abandoned)
	}
	if delivered != injected {
		return fmt.Errorf("injected %d but delivered %d", injected, delivered)
	}
	return nil
}
