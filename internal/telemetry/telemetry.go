// Package telemetry serves live observability for a running simulation:
// a stdlib-only HTTP server exposing the metrics registry in Prometheus
// text exposition format, a JSON state snapshot, watchdog-driven
// liveness, and pprof — the first concrete slice of simulation-as-a-
// service.
//
// Nothing but the barrier snapshot ever leaves the simulation. Counters,
// gauges and network aggregates all live in unsynchronized component
// state, so they are captured only at a cycle barrier, by the goroutine
// that runs the simulation, into an immutable Snapshot published through an
// atomic pointer; the HTTP goroutine only ever loads that pointer. The
// simulation therefore never blocks on a scrape, scrape results never
// tear, and determinism is untouched (the server performs no writes into
// simulation state). A request that arrives from outside — SIGQUIT asking
// for a state dump — is the same hand-off in the other direction: a flag
// the simulation looks at, at its next barrier (DumpRequest). This package
// is intentionally outside the determinism-linted set: it may use
// goroutines, time and the network, and must never be imported by
// component code on the hot path — the network integrates with it only
// through barrier observers.
package telemetry

import (
	"sync/atomic"

	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/metrics"
	"stashsim/internal/sim"
)

// WatchdogState is the liveness slice of a snapshot.
type WatchdogState struct {
	Stalled    bool  `json:"stalled"`
	Stalls     int64 `json:"stalls"`
	Suppressed int64 `json:"suppressed"`
}

// FlightTail is the flight recorder's recent-cycle table in a snapshot.
type FlightTail struct {
	Fields []string  `json:"fields"`
	Rows   [][]int64 `json:"rows"`
}

// Snapshot is one immutable published view of the simulation, built at a
// cycle barrier (network quiescent) and handed to readers by pointer.
// Everything in it is a copy; readers never chase live state.
type Snapshot struct {
	Cycle             int64           `json:"cycle"`
	Counters          core.Counters   `json:"counters"`
	InjectedPkts      int64           `json:"injected_pkts"`
	DeliveredPkts     int64           `json:"delivered_pkts"`
	DupPkts           int64           `json:"dup_pkts"`
	AbandonedPkts     int64           `json:"abandoned_pkts"`
	DeliveredFlits    int64           `json:"delivered_flits"`
	QueuedFlits       int64           `json:"queued_flits"`
	StashUsed         int             `json:"stash_used"`
	CreditStallCycles int64           `json:"credit_stall_cycles"`
	Fault             *fault.Stats    `json:"fault,omitempty"`
	Watchdog          *WatchdogState  `json:"watchdog,omitempty"`
	ExecProfile       *sim.ExecReport `json:"exec_profile,omitempty"`
	Gauges            []GaugeSample   `json:"gauges,omitempty"`
	Flight            *FlightTail     `json:"flight,omitempty"`

	// Series is the metrics registry's name table and Values what each row
	// read at the barrier. The table is built once, when the registry is
	// wired, and every snapshot points at the same one; a snapshot adds only
	// the values. /metrics serves them; the JSON form has just the gauges.
	Series []metrics.Series `json:"-"`
	Values []float64        `json:"-"`
}

// GaugeSample is one captured gauge value (JSON-friendly mirror of
// metrics.Sample).
type GaugeSample struct {
	Scope string  `json:"scope"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Publisher owns the snapshot hand-off between the simulation loop and
// the HTTP goroutine. It is a barrier observer (network.Observer) naming
// the multiples of its interval, so build runs on the simulation side and
// may walk live state freely; Latest is wait-free for readers.
type Publisher struct {
	build func() *Snapshot
	every int64
	cur   atomic.Pointer[Snapshot]
}

// NewPublisher returns a publisher that refreshes the snapshot every
// `every` cycles (values below one mean the flight recorder's interval).
// It publishes an initial snapshot immediately so readers never observe
// nil.
func NewPublisher(build func() *Snapshot, every int64) *Publisher {
	if every < 1 {
		every = metrics.FlightInterval
	}
	p := &Publisher{build: build, every: every}
	p.cur.Store(build())
	return p
}

// NextEventAt names the publication cycles: the multiples of the interval.
//
//stashsim:phase serial
func (p *Publisher) NextEventAt(from int64) int64 { return sim.NextMultiple(from, p.every) }

// AtBarrier republishes the snapshot after cycle now.
//
//stashsim:phase serial -- build() walks live simulation state; only the coordinator may run it
func (p *Publisher) AtBarrier(int64) { p.Publish() }

// Publish forces an immediate refresh (end of run, signal dump).
//
//stashsim:phase serial -- build() walks live simulation state; only the coordinator may run it
func (p *Publisher) Publish() {
	if p == nil {
		return
	}
	p.cur.Store(p.build())
}

// Latest returns the most recently published snapshot (nil only for a
// nil publisher).
//
//stashsim:phase parallel -- wait-free atomic pointer load; the HTTP goroutine's read side
func (p *Publisher) Latest() *Snapshot {
	if p == nil {
		return nil
	}
	return p.cur.Load()
}

// PromSamples flattens a snapshot into exposition series: the run-level
// progress counters, then every registry series as captured.
func (s *Snapshot) PromSamples() []metrics.Sample {
	if s == nil {
		return nil
	}
	out := []metrics.Sample{
		{Name: "cycle", Value: float64(s.Cycle), IsGauge: true},
		{Name: "injected_pkts_total", Value: float64(s.InjectedPkts)},
		{Name: "delivered_pkts_total", Value: float64(s.DeliveredPkts)},
		{Name: "dup_pkts_total", Value: float64(s.DupPkts)},
		{Name: "abandoned_pkts_total", Value: float64(s.AbandonedPkts)},
		{Name: "delivered_flits_total", Value: float64(s.DeliveredFlits)},
		{Name: "queued_flits", Value: float64(s.QueuedFlits), IsGauge: true},
		{Name: "stash_used", Value: float64(s.StashUsed), IsGauge: true},
		{Name: "credit_stall_cycles_total", Value: float64(s.CreditStallCycles)},
	}
	if s.Watchdog != nil {
		stalled := 0.0
		if s.Watchdog.Stalled {
			stalled = 1
		}
		out = append(out,
			metrics.Sample{Name: "watchdog_stalled", Value: stalled, IsGauge: true},
			metrics.Sample{Name: "watchdog_stalls_total", Value: float64(s.Watchdog.Stalls)},
		)
	}
	return append(out, metrics.Samples(s.Series, s.Values)...)
}

// DumpRequest turns a request made on any goroutine (SIGQUIT, in the CLI)
// for a dump of live simulation state into a read at a barrier. While the
// simulation runs, Request only raises a flag; as a barrier observer the
// DumpRequest names the current cycle for as long as the flag is up, so the
// network stops at its next barrier — at most one epoch away — and the dump
// is written there, by the goroutine running the simulation. Once that
// goroutine has called Finish there are no more barriers and nothing left
// that writes, and a request is served on the spot.
type DumpRequest struct {
	state atomic.Int32 // dumpIdle, dumpRequested or dumpDirect
	dump  func()
}

const (
	dumpIdle      = iota // nothing asked for; the simulation may be running
	dumpRequested        // a dump is owed at the next barrier
	dumpDirect           // the simulation is over: Request dumps at once
)

// NewDumpRequest returns a request slot for dump, which reads live
// simulation state and is only ever called as described above.
func NewDumpRequest(dump func()) *DumpRequest {
	return &DumpRequest{dump: dump}
}

// Request asks for one dump. Requests made while one is already owed are
// folded into it.
//
//stashsim:phase parallel -- one compare-and-swap; the signal goroutine's side
func (d *DumpRequest) Request() {
	if !d.state.CompareAndSwap(dumpIdle, dumpRequested) && d.state.Load() == dumpDirect {
		d.dump()
	}
}

// NextEventAt names the cycle it is asked about while a dump is owed.
//
//stashsim:phase serial
func (d *DumpRequest) NextEventAt(from int64) int64 {
	if d.state.Load() == dumpRequested {
		return from
	}
	return sim.Never
}

// AtBarrier writes the owed dump. The flag comes down first, so a request
// made during the dump is owed the next barrier and not lost.
//
//stashsim:phase serial -- dump walks live simulation state; only the coordinator may run it
func (d *DumpRequest) AtBarrier(int64) {
	d.state.Store(dumpIdle)
	d.dump()
}

// Finish says that the calling goroutine, the one that ran the simulation,
// will run no more of it: it serves a dump still owed, and from here on
// Request serves itself. A nil *DumpRequest is a no-op.
//
//stashsim:phase serial -- dump walks live simulation state; only the coordinator may run it
func (d *DumpRequest) Finish() {
	if d != nil && d.state.Swap(dumpDirect) == dumpRequested {
		d.dump()
	}
}
