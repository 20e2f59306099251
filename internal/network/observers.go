package network

import (
	"fmt"
	"io"

	"stashsim/internal/buffer"
	"stashsim/internal/core"
	"stashsim/internal/metrics"
)

// The observers that read the network. A constructor only builds one: the
// caller registers it with Observe, the one way anything joins the barrier
// schedule, and keeps the handle it reports from. Registration order is
// firing order on a shared cycle and the order the checkpoint walks them
// in, so it is part of what a restore must repeat. Register a flight
// recorder ahead of the watchdog that dumps it, and a telemetry publisher
// last.

// NewSampler builds an occupancy sampler polled every `every` cycles with
// the standard network probes: network-wide stash fill, normal
// input/output buffer fill, and the endpoint injection backlog (flits).
func NewSampler(n *Network, every int64) *metrics.Sampler {
	sp := metrics.NewSampler(every)
	// fill probes the network-wide used/capacity ratio of one buffer kind.
	fill := func(of func(s *core.Switch) (used, cap int)) func() float64 {
		return func() float64 {
			used, cap := 0, 0
			for _, s := range n.Switches {
				u, c := of(s)
				used, cap = used+u, cap+c
			}
			if cap == 0 {
				return 0
			}
			return float64(used) / float64(cap)
		}
	}
	sp.Probe("stash.fill", fill(func(s *core.Switch) (int, int) { return s.StashUsed(), s.StashCapTotal() }))
	sp.Probe("in.buf.fill", fill(func(s *core.Switch) (int, int) { u, c, _, _ := s.BufferFill(); return u, c }))
	sp.Probe("out.buf.fill", fill(func(s *core.Switch) (int, int) { _, _, u, c := s.BufferFill(); return u, c }))
	sp.Probe("inject.backlog", func() float64 { return float64(n.TotalQueuedFlits()) })
	return sp
}

// NewFlightRecorder builds a flight recorder retaining the last `rows`
// intervals (metrics.FlightInterval cycles each) of aggregate readings:
// deliveries, stash stores/retrieves, credit stalls (per-interval deltas)
// and stash occupancy plus injection backlog (absolute gauges). A row is
// one pass over the endpoints and one over the switches.
func NewFlightRecorder(n *Network, rows int) *metrics.FlightRecorder {
	return metrics.NewFlightRecorder(rows,
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
}

// NewWatchdog builds a stall watchdog: if window cycles pass with no flit
// delivered at any endpoint while work is pending, it writes to out the
// last 64 rows of flight (nil: none) and the state of every non-idle
// switch, instead of letting the run spin silently. Under a fault plan it
// first asks whether an outage, a parity rebuild or a recent bank failure
// explains the lull.
func NewWatchdog(n *Network, window int64, out io.Writer, flight *metrics.FlightRecorder) *metrics.Watchdog {
	w := &metrics.Watchdog{
		Window:    window,
		Out:       out,
		Delivered: n.TotalDeliveredFlits,
		Pending: func() bool {
			if n.TotalQueuedFlits() > 0 {
				return true
			}
			for _, s := range n.Switches {
				if s.Busy() {
					return true
				}
			}
			return false
		},
		Dump: func(w io.Writer) {
			flight.Dump(w, 64)
			n.DumpNonIdle(w)
		},
	}
	if n.Injector != nil {
		w.Note = func(from, to int64) string {
			if note := n.Injector.OutageNote(from, to); note != "" {
				return note
			}
			if pending := n.PendingReconstructions(); pending > 0 {
				return fmt.Sprintf("%d stash reconstruction(s) in flight", pending)
			}
			return n.Injector.StashFailNote(from, to)
		}
	}
	return w
}

// NewInvariants builds the runtime invariant checker, auditing the
// conservation laws every `every` cycles (values below one audit every
// cycle). The credited edges come from the link table: switch→switch links
// paired with the downstream input buffer, and endpoint→switch injection
// links paired with the end-port buffer.
func NewInvariants(n *Network, every int64) *core.Invariants {
	iv := &core.Invariants{
		Every:    every,
		Switches: n.Switches,
		ExtCreated: func() int64 {
			var total int64
			for _, ep := range n.Endpoints {
				total += ep.SentFlits
			}
			return total
		},
		ExtDestroyed: n.TotalDeliveredFlits,
		FlushWire:    n.flushWire,
	}
	for _, ep := range n.Endpoints {
		toSw, _ := ep.AuditLinks()
		iv.ExtLinks = append(iv.ExtLinks, toSw)
		iv.ExtLists = append(iv.ExtLists, ep)
	}
	for i := range n.edges {
		e := &n.edges[i]
		if e.to.sw < 0 {
			continue // delivery links return no credits
		}
		var credits *buffer.CreditCounter
		if e.from.sw < 0 {
			credits = n.Endpoints[e.from.port].AuditCredits()
		} else {
			credits = n.Switches[e.from.sw].AuditOutCredits(int(e.from.port))
		}
		iv.Edges = append(iv.Edges, core.CreditEdge{
			Name:    e.name(),
			Credits: credits,
			Link:    e.link,
			Buf:     n.Switches[e.to.sw].AuditInBuf(int(e.to.port)),
		})
	}
	return iv
}

// Observed returns the first registered observer of type T, or T's zero
// value: how a report finds an observer someone else built — the telemetry
// snapshot its watchdog and flight recorder, a CLI the invariant checker
// harness.Spec.New registered.
func Observed[T Observer](n *Network) (t T) {
	for _, o := range n.observers {
		if v, ok := o.(T); ok {
			return v
		}
	}
	return t
}
