package network

import (
	"fmt"

	"stashsim/internal/metrics"
	"stashsim/internal/sim"
	"stashsim/internal/telemetry"
)

// This file wires the observability-layer extras introduced with the
// executor profiler and the live telemetry server: all opt-in, all nil
// (disabled) by default, and none of them mutate simulation state — so
// -json output is byte-identical with or without them.

// EnableExecProfile creates and attaches an executor stall profiler sized
// for the network's current worker count; a later SetWorkers resizes it,
// so the call order does not matter. ringCycles > 0 additionally retains
// the most recent ringCycles epochs of raw lane timings for the Chrome
// trace export.
func (n *Network) EnableExecProfile(ringCycles int) *sim.ExecProfiler {
	p := sim.NewExecProfiler(n.workers, ringCycles)
	p.SetPhaseLabels("endpoints", "switches")
	n.Profiler, n.profOwned, n.profRing = p, true, ringCycles
	n.repartition()
	return p
}

// SetExecProfiler attaches an existing profiler (the figures harness
// shares one across every sweep network so the totals aggregate), or
// detaches profiling when p is nil. The profiler's worker lane count
// must match the network's worker count; a mismatch returns an error
// instead of being silently dropped at Run time, as it once was. Unlike
// EnableExecProfile, the attached profiler is caller-owned: SetWorkers
// will not resize it.
func (n *Network) SetExecProfiler(p *sim.ExecProfiler) error {
	if p != nil && p.Workers() != n.workers {
		return fmt.Errorf("network: profiler sized for %d workers attached to a %d-worker network (size it with sim.NewExecProfiler(%d, ...) or use EnableExecProfile)",
			p.Workers(), n.workers, n.workers)
	}
	p.SetPhaseLabels("endpoints", "switches")
	n.Profiler, n.profOwned = p, false
	n.repartition()
	return nil
}

// CyclesDone reports completed simulation cycles as of the last epoch
// boundary. It is safe to call from any goroutine at any time, and —
// unlike Now, written back only when Run returns — it advances mid-run.
func (n *Network) CyclesDone() int64 { return n.cycleDone.Load() }

// TotalCreditStallCycles sums the always-on credit-stall tap across
// switches (output cycles with flits queued but no downstream credits).
func (n *Network) TotalCreditStallCycles() int64 {
	var total int64
	for _, s := range n.Switches {
		total += s.CreditStallCycles
	}
	return total
}

// TotalDeliveredFlits sums flits received at endpoints over the whole
// run (not gated by measurement warmup, unlike the collector view).
func (n *Network) TotalDeliveredFlits() int64 {
	var total int64
	for _, ep := range n.Endpoints {
		total += ep.RecvFlits
	}
	return total
}

// AttachFlight installs a flight recorder retaining the last `rows`
// intervals (metrics.FlightInterval cycles each) of aggregate readings:
// deliveries, stash stores/retrieves, credit stalls (per-interval deltas)
// and stash occupancy plus injection backlog (absolute gauges). Dumped by
// the watchdog on stalls and by SIGQUIT. Attach it before the watchdog and
// a stall dump includes the interval that ends on the stall cycle.
func (n *Network) AttachFlight(rows int) *metrics.FlightRecorder {
	f := metrics.NewFlightRecorder(rows,
		metrics.FlightField{Name: "delivered", Read: n.TotalDeliveredFlits},
		metrics.FlightField{Name: "stash.stores", Read: func() int64 { return n.Counters().StashStores }},
		metrics.FlightField{Name: "stash.retrieves", Read: func() int64 { return n.Counters().StashRetrieves }},
		metrics.FlightField{Name: "credit.stalls", Read: n.TotalCreditStallCycles},
		metrics.FlightField{Name: "stash.used", Gauge: true, Read: func() int64 {
			return int64(n.TotalStashUsed())
		}},
		metrics.FlightField{Name: "inject.backlog", Gauge: true, Read: n.TotalQueuedFlits},
	)
	n.Flight = f
	n.Observe(f)
	return f
}

// TelemetrySnapshot captures the full quiescent view the live server
// publishes: counters, delivery totals, fault and watchdog state, the
// executor profile, every registered gauge, and the flight recorder
// tail. Call only while the network is quiescent (the publisher runs it
// at a barrier; CLIs also call it after a run).
func (n *Network) TelemetrySnapshot() *telemetry.Snapshot {
	s := &telemetry.Snapshot{
		Cycle:             n.CyclesDone(),
		Counters:          n.Counters(),
		DeliveredFlits:    n.TotalDeliveredFlits(),
		QueuedFlits:       n.TotalQueuedFlits(),
		StashUsed:         n.TotalStashUsed(),
		CreditStallCycles: n.TotalCreditStallCycles(),
	}
	s.InjectedPkts, s.DeliveredPkts, s.DupPkts, s.AbandonedPkts = n.DeliveryTotals()
	if n.Injector != nil {
		fs := n.FaultStats()
		s.Fault = &fs
	}
	if n.Watchdog != nil {
		s.Watchdog = &telemetry.WatchdogState{
			Stalled:    n.Watchdog.Stalled(),
			Stalls:     n.Watchdog.Stalls,
			Suppressed: n.Watchdog.Suppressed,
		}
	}
	if n.Profiler != nil {
		s.ExecProfile = n.Profiler.Report()
	}
	for _, g := range n.Metrics.GaugeSamples() {
		s.Gauges = append(s.Gauges, telemetry.GaugeSample{Scope: g.Scope, Name: g.Name, Value: g.Value})
	}
	if n.Flight != nil {
		s.Flight = &telemetry.FlightTail{
			Fields: n.Flight.FieldNames(),
			Rows:   n.Flight.Snapshot(64),
		}
	}
	return s
}

// AttachTelemetry creates and attaches a snapshot publisher over
// TelemetrySnapshot, refreshed every `every` cycles. The returned
// publisher feeds a telemetry.Server. Attach it last, so each snapshot
// carries what the other observers recorded on the same cycle.
func (n *Network) AttachTelemetry(every int64) *telemetry.Publisher {
	p := telemetry.NewPublisher(n.TelemetrySnapshot, every)
	n.Observe(p)
	return p
}
