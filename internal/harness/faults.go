package harness

import (
	"fmt"

	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/network"
)

// faults declares the sweep that quantifies the recovery ladder of the fault-injection extension:
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
func faults(o *Options) *grid {
	rates := []float64{1e-4, 5e-4, 1e-3, 5e-3, 1e-2}
	if o.Quick {
		rates = []float64{1e-3, 5e-3}
	}
	warm, meas := o.scaleDur(5000), o.scaleDur(20000)

	// Four bank failures on distinct switches, staggered through the
	// middle of the measured window (every preset has >= 4 switches).
	var fails []fault.StashFail
	for i := 0; i < 4; i++ {
		fails = append(fails, fault.StashFail{Switch: i, Port: 0, At: warm + meas/4 + int64(i)*meas/8})
	}

	return &grid{
		rows: labels("%.0e", rates),
		variants: []variant{
			{name: "StashLocal", mode: core.StashE2E, capFrac: 1.0},
			{name: "StashParity", mode: core.StashE2E, capFrac: 1.0},
			{name: "Endpoint", mode: core.StashOff, capFrac: 1.0},
		},
		warm: warm,
		meas: meas,
		tables: []gridTable{{Output{Title: "Faults: recovery latency, stash-local vs source-endpoint resend", File: "faults_recovery"},
			"DropRate", []string{"_RecLat_us", "_Recovered", "_Resends", "_Dups", "_Recon"}}},
		// The sweep's own plan and parity replace whatever the options carry.
		point: func(sp *Spec, row, vi int) func(*core.Config) {
			sp.Fault = &fault.Plan{Seed: sp.Seed + 101, LinkDropRate: rates[row], StashFailures: fails}
			sp.StashParity = []int{0, 4, 0}[vi]
			sp.Load, sp.MsgPkts = 0.2, 1
			sp.Drain, sp.AssertDelivery = 2_000_000, true
			return nil
		},
		wire: uniformWire(2000),
		cells: func(n *network.Network, _ *Summary) []string {
			c := n.Collector()
			nc := n.Counters()
			return []string{
				fmtF(c.RecoveryAcc.Mean()/1300, 2), // cycles -> us
				fmt.Sprint(c.RecoveredPkts),
				fmt.Sprint(nc.E2ERetransmits + c.EndpointRetransmits),
				fmt.Sprint(c.DuplicatesSuppressed),
				fmt.Sprint(nc.StashReconstructed)}
		},
	}
}
