package network

import (
	"fmt"

	"stashsim/internal/metrics"
	"stashsim/internal/sim"
	"stashsim/internal/telemetry"
)

// This file wires the executor profiler, the flight recorder and the
// telemetry publisher: all opt-in, all nil (disabled) by default, and none
// of them mutate simulation state — so -json output is byte-identical with
// or without them.

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
// boundary: unlike Now, written back only when Run returns, it advances
// mid-run. Like all simulation state it is for barrier observers and the
// goroutine that called Run.
func (n *Network) CyclesDone() int64 { return n.cycleDone }

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
// and stash occupancy plus injection backlog (absolute gauges). A row is
// one pass over the endpoints and one over the switches. Dumped by the
// watchdog on stalls and by SIGQUIT. Attach it before the watchdog and a
// stall dump includes the interval that ends on the stall cycle.
func (n *Network) AttachFlight(rows int) *metrics.FlightRecorder {
	f := metrics.NewFlightRecorder(rows,
		func(raw []int64) {
			var delivered, stores, retrieves, stalls, used, backlog int64
			for _, ep := range n.Endpoints {
				delivered += ep.RecvFlits
				backlog += ep.QueuedFlits()
			}
			for _, s := range n.Switches {
				stores += s.Counters.StashStores
				retrieves += s.Counters.StashRetrieves
				stalls += s.CreditStallCycles
				used += int64(s.StashUsed())
			}
			raw[0], raw[1], raw[2], raw[3], raw[4], raw[5] = delivered, stores, retrieves, stalls, used, backlog
		},
		metrics.FlightField{Name: "delivered"},
		metrics.FlightField{Name: "stash.stores"},
		metrics.FlightField{Name: "stash.retrieves"},
		metrics.FlightField{Name: "credit.stalls"},
		metrics.FlightField{Name: "stash.used", Gauge: true},
		metrics.FlightField{Name: "inject.backlog", Gauge: true},
	)
	n.Flight = f
	n.Observe(f)
	return f
}

// TelemetrySnapshot captures the full quiescent view the live server
// publishes: counters, delivery totals, fault and watchdog state, the
// executor profile, every registered metric, and the flight recorder
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
	s.Series, s.Values = n.Metrics.Series(), n.Metrics.Read()
	for i, sr := range s.Series {
		if sr.IsGauge {
			s.Gauges = append(s.Gauges, telemetry.GaugeSample{Scope: sr.Scope, Name: sr.Name, Value: s.Values[i]})
		}
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
