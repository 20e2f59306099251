package harness

import (
	"fmt"
	"strings"

	"stashsim/internal/core"
	"stashsim/internal/sim"
	"stashsim/internal/stats"
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
	var fails []string
	for i := 0; i < 4; i++ {
		fails = append(fails, fmt.Sprintf("%d.0@%d", i, warm+meas/4+int64(i)*meas/8))
	}
	stashFails := strings.Join(fails, ",")

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
		// The sweep's own plan replaces whatever the options carry.
		sp := o.point("faults", i, v.mode, 1.0, false)
		sp.FaultPlanPath, sp.Outages, sp.CorruptRate = "", "", 0
		sp.FaultSeed, sp.DropRate, sp.StashFails = sp.Seed+101, rate, stashFails
		sp.Retrans, sp.StashParity = true, v.parity
		sp.Load, sp.MsgPkts = 0.2, 1
		sp.Warmup, sp.Cycles, sp.Drain, sp.AssertDelivery = warm, meas, drainBudget, true
		n, err := o.network(&sp, nil)
		if err != nil {
			return err
		}
		sp.Wire(n, sim.NewRNG(sp.Seed+2000))
		if err := sp.Warm(n, warm); err != nil {
			return err
		}
		if _, err := sp.Run(n); err != nil {
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
