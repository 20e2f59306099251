package network

import (
	"fmt"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/traffic"
)

// testRetrans returns timer parameters sized for the tiny network's round
// trips so recovery ladders complete within a test-sized drain budget.
func testRetrans() core.RetransParams {
	return core.RetransParams{
		Enabled:         true,
		SwitchTimeout:   2048,
		SwitchRetries:   4,
		EndpointTimeout: 8192,
		EndpointRetries: 6,
		ScanEvery:       16,
	}
}

// buildFaulted wires a tiny StashE2E network with the recovery ladder
// active under the given fault plan, uniform load, and sparse invariant
// audits.
func buildFaulted(t *testing.T, plan *fault.Plan, load float64, mutate func(*core.Config)) *Network {
	t.Helper()
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	cfg.RetainPayload = true
	cfg.Retrans = testRetrans()
	cfg.Fault = plan
	if mutate != nil {
		mutate(cfg)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.EnableInvariants(64)
	rng := sim.NewRNG(11)
	rate := n.ChannelRate()
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			load, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	return n
}

// requireExactlyOnce stops traffic generation, drains the network, and
// asserts the exactly-once delivery property: every injected packet was
// delivered exactly once (no losses, no double deliveries) or explicitly
// abandoned.
func requireExactlyOnce(t *testing.T, n *Network, drainBudget int64) {
	t.Helper()
	for _, ep := range n.Endpoints {
		ep.Gen = nil
	}
	if !n.Drain(drainBudget) {
		injected, delivered, dups, abandoned := n.DeliveryTotals()
		t.Fatalf("network did not drain in %d cycles: injected %d delivered %d dups %d abandoned %d backlog %d",
			drainBudget, injected, delivered, dups, abandoned, n.TotalQueuedFlits())
	}
	injected, delivered, dups, abandoned := n.DeliveryTotals()
	if delivered+abandoned != injected {
		t.Fatalf("delivery accounting broken: injected %d != delivered %d + abandoned %d",
			injected, delivered, abandoned)
	}
	if abandoned != 0 {
		t.Fatalf("%d packets abandoned under a recoverable fault plan", abandoned)
	}
	// Duplicates were suppressed, never delivered to the application.
	if dups != n.Collector().DuplicatesSuppressed {
		t.Fatalf("endpoint dup count %d != collector %d", dups, n.Collector().DuplicatesSuppressed)
	}
	if err := n.SanityCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestExactlyOnceUnderDrops is the core recovery property test: with
// Bernoulli packet drops on every link, every injected packet is still
// delivered exactly once via stash or source retransmission.
func TestExactlyOnceUnderDrops(t *testing.T) {
	plan := &fault.Plan{Seed: 21, LinkDropRate: 2e-3}
	n := buildFaulted(t, plan, 0.2, nil)
	n.Run(12000)
	requireExactlyOnce(t, n, 600_000)
	st := n.FaultStats()
	if st.PktsDropped == 0 {
		t.Fatal("fault plan injected no drops; the property was not exercised")
	}
	c := n.Counters()
	if c.E2ERetransmits == 0 && n.Collector().EndpointRetransmits == 0 {
		t.Fatal("drops recovered without any retransmission path firing")
	}
	t.Logf("dropped %d pkts (%d flits); stash resends %d, endpoint resends %d, dups suppressed %d",
		st.PktsDropped, st.FlitsDropped, c.E2ERetransmits,
		n.Collector().EndpointRetransmits, n.Collector().DuplicatesSuppressed)
}

// TestExactlyOnceUnderOutage blacks out one switch-to-switch channel for
// a window mid-run; packets routed across it during the window are lost
// on the wire and must be recovered.
func TestExactlyOnceUnderOutage(t *testing.T) {
	d := core.TinyConfig().Topo
	// First local channel out of switch 0.
	port := d.P
	nsw, nport := d.Neighbor(0, port)
	link := fmt.Sprintf("sw0.%d->sw%d.%d", port, nsw, nport)
	plan := &fault.Plan{Seed: 3, Outages: []fault.Outage{{Link: link, Start: 2000, End: 6000}}}
	n := buildFaulted(t, plan, 0.25, nil)
	n.Run(10000)
	requireExactlyOnce(t, n, 600_000)
	st := n.FaultStats()
	if st.OutagePkts == 0 {
		t.Fatalf("no packet crossed %s during the outage; widen the window", link)
	}
}

// TestOutageOnInjectionLinkFallsBackToSource drops everything an endpoint
// injects for a window. The first-hop switch never sees those packets, so
// only the source endpoint's timer can recover them — the graceful
// degradation path.
func TestOutageOnInjectionLinkFallsBackToSource(t *testing.T) {
	plan := &fault.Plan{Seed: 5, Outages: []fault.Outage{{Link: "ep0->sw0.0", Start: 500, End: 4500}}}
	n := buildFaulted(t, plan, 0.15, nil)
	n.Run(8000)
	requireExactlyOnce(t, n, 600_000)
	if n.FaultStats().OutagePkts == 0 {
		t.Fatal("endpoint 0 injected nothing during its outage window")
	}
	if n.Collector().EndpointRetransmits == 0 {
		t.Fatal("injection-link outage recovered without source retransmission")
	}
}

// TestExactlyOnceUnderBankFailure fails the stash banks of switch 0's end
// ports mid-run while drops are active: entries whose copies vanished must
// fall back to the source timer instead of resending from the dead bank.
func TestExactlyOnceUnderBankFailure(t *testing.T) {
	plan := &fault.Plan{
		Seed:         9,
		LinkDropRate: 2e-3,
		StashFailures: []fault.StashFail{
			{Switch: 0, Port: 0, At: 4000},
			{Switch: 0, Port: 1, At: 4000},
		},
	}
	n := buildFaulted(t, plan, 0.25, nil)
	n.Run(9000)
	requireExactlyOnce(t, n, 600_000)
	if n.FaultStats().StashCopiesLost == 0 {
		t.Fatal("bank failures invalidated no live copies; raise the load or delay the failure")
	}
	if n.Counters().StashCopiesLost != n.FaultStats().StashCopiesLost {
		t.Fatalf("switch counter %d != injector stat %d",
			n.Counters().StashCopiesLost, n.FaultStats().StashCopiesLost)
	}
}

// TestCorruptionDetectedAndRecovered flips checksums on the wire; the
// destinations must NACK every corrupted packet and a clean copy must
// still deliver exactly once.
func TestCorruptionDetectedAndRecovered(t *testing.T) {
	plan := &fault.Plan{Seed: 13, CorruptRate: 1e-3}
	n := buildFaulted(t, plan, 0.2, nil)
	n.Run(10000)
	requireExactlyOnce(t, n, 600_000)
	st := n.FaultStats()
	if st.FlitsCorrupted == 0 {
		t.Fatal("corruption rate injected nothing")
	}
	if n.Collector().CorruptPkts == 0 {
		t.Fatal("corrupted flits were never detected at a destination")
	}
}

// TestFaultScheduleIsDeterministic runs the same faulted configuration
// twice and requires identical fault injections, recoveries, and
// deliveries — the reproducibility contract extends to fault plans.
func TestFaultScheduleIsDeterministic(t *testing.T) {
	run := func() (fault.Stats, core.Counters, [4]int64) {
		plan := &fault.Plan{Seed: 17, LinkDropRate: 3e-3, CorruptRate: 5e-4}
		n := buildFaulted(t, plan, 0.2, nil)
		n.Run(8000)
		var d [4]int64
		d[0], d[1], d[2], d[3] = n.DeliveryTotals()
		return n.FaultStats(), n.Counters(), d
	}
	s1, c1, d1 := run()
	s2, c2, d2 := run()
	if s1 != s2 {
		t.Fatalf("fault stats diverged:\n%+v\n%+v", s1, s2)
	}
	if c1 != c2 {
		t.Fatalf("switch counters diverged:\n%+v\n%+v", c1, c2)
	}
	if d1 != d2 {
		t.Fatalf("delivery totals diverged: %v vs %v", d1, d2)
	}
}

// TestUnknownOutageLinkRejected catches plan typos at build time.
func TestUnknownOutageLinkRejected(t *testing.T) {
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	cfg.RetainPayload = true
	cfg.Retrans = testRetrans()
	cfg.Fault = &fault.Plan{Seed: 1, Outages: []fault.Outage{{Link: "sw0.99->sw1.0", Start: 0, End: 10}}}
	if _, err := New(cfg); err == nil {
		t.Fatal("plan naming a nonexistent link was accepted")
	}
}
