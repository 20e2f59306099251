// Package network assembles a complete simulated system: a dragonfly of
// tiled (optionally stashing) switches, endpoints, and the latency links
// between them, plus the warmup/measure phasing used by the experiments.
package network

import (
	"fmt"
	"io"

	"stashsim/internal/buffer"
	"stashsim/internal/core"
	"stashsim/internal/endpoint"
	"stashsim/internal/fault"
	"stashsim/internal/metrics"
	"stashsim/internal/sim"
	"stashsim/internal/topo"
)

// Network is one fully wired simulated system.
type Network struct {
	Cfg       *core.Config
	Switches  []*core.Switch
	Endpoints []*endpoint.Endpoint

	// Collectors holds one measurement shard per endpoint (endpoint i
	// records only into shard i), so the parallel executor can step
	// endpoints concurrently with no synchronization on the recording
	// path. Read aggregates through Collector(), which merges the shards
	// in fixed shard order — the order that keeps float accumulation, and
	// therefore -json output, bit-identical across worker counts.
	Collectors *endpoint.CollectorSet

	// Observability sinks; all nil (disabled) by default. See the
	// EnableMetrics/EnableTracing/AttachSampler/AttachWatchdog wiring
	// helpers. Sampler, Watchdog, Flight and Invariants are handles for
	// reporting and checkpointing; what schedules them is the observer
	// list they were registered on (Observe).
	Metrics  *metrics.Registry
	Tracer   *metrics.Tracer //stashsim:transient -- debugging sink; its output stream cannot resume mid-run
	Sampler  *metrics.Sampler
	Watchdog *metrics.Watchdog

	// Profiler, when non-nil (EnableExecProfile / SetExecProfiler),
	// receives per-worker per-phase executor timings.
	//
	//stashsim:transient -- debugging sink; its output stream cannot resume mid-run
	Profiler *sim.ExecProfiler

	// Flight, when non-nil (AttachFlight), records per-interval aggregate
	// deltas into a ring dumped by the watchdog and SIGQUIT.
	//
	//stashsim:transient -- debugging sink; its output stream cannot resume mid-run
	Flight *metrics.FlightRecorder

	// Invariants, when non-nil (EnableInvariants), audits the
	// conservation laws after the cycles its interval names.
	Invariants *core.Invariants

	// observers is the barrier schedule: everything beforeEpoch asks for
	// its next cycle and afterEpoch calls on it (see Observer).
	//
	//stashsim:transient -- wiring, rebuilt by the Attach calls; the stateful observers are walked through their handles above
	observers []Observer

	// edges is every directed link, recorded once by New in wiring order;
	// EnableInvariants and repartition iterate it instead of walking the
	// topology again.
	//
	//stashsim:derived -- the topology's link table, rebuilt by New
	edges []edge

	// Injector, when non-nil (Cfg.Fault active), owns the fault schedule:
	// the per-link fault states were handed out at wiring time, and the
	// stash-bank failure events are applied by Step.
	Injector *fault.Injector

	Now sim.Tick

	// workers is the worker count SetWorkers asked for (1 = the whole
	// network stepped inline on the calling goroutine), blocks how many
	// blocks they step; exec is the executor over the current cut and
	// lookahead the epoch-length cap it runs under, all rebuilt by
	// repartition.
	//
	//stashsim:transient -- executor wiring; snapshots are partition-canonical
	workers   int
	blocks    int           //stashsim:transient -- executor wiring; snapshots are partition-canonical
	exec      *sim.Executor //stashsim:transient -- executor wiring; snapshots are partition-canonical
	lookahead int64         //stashsim:transient -- executor wiring; snapshots are partition-canonical

	// profOwned marks Profiler as built by EnableExecProfile (ring size
	// profRing), which SetWorkers then resizes to follow the worker count.
	//
	//stashsim:transient -- debugging sink; its output stream cannot resume mid-run
	profOwned bool
	profRing  int //stashsim:transient -- debugging sink; its output stream cannot resume mid-run

	// cycleDone counts completed cycles, stored at every epoch boundary.
	// Unlike Now — written back only when Run returns — it advances
	// mid-run, which is what a barrier observer needs to read.
	cycleDone int64

	// epochs and epochCycles count the epochs run and the cycles they
	// covered, for ExecStats.
	//
	//stashsim:transient -- wall-side accounting of this process's run, not simulated state
	epochs      int64
	epochCycles int64 //stashsim:transient -- wall-side accounting of this process's run, not simulated state

	// ckptFn, when non-nil, is the pending checkpoint action scheduled by
	// ScheduleCheckpoint: beforeEpoch invokes it once at the first cycle
	// >= ckptAt, before any fault event or component step of that cycle,
	// having cut the previous epoch to end there, so it runs at a true
	// serial barrier under any partitioning.
	ckptAt int64
	ckptFn func(now sim.Tick)
}

// linkEnd is one side of a directed link: port `port` of switch `sw`, or,
// when sw is negative, endpoint number `port`.
type linkEnd struct{ sw, port int32 }

func (e linkEnd) String() string {
	if e.sw < 0 {
		return fmt.Sprintf("ep%d", e.port)
	}
	return fmt.Sprintf("sw%d.%d", e.sw, e.port)
}

// edge is one directed link as New wired it: the link, its class, and the
// producer and consumer it connects.
type edge struct {
	link     *core.Link
	from, to linkEnd
	class    topo.LinkClass
}

// name is the link's name in fault plans and invariant reports
// ("sw0.3->sw1.2", "ep5->sw1.0", "sw1.0->ep5"). It is formatted when asked
// for — a plan is being attached, the checker is being built — and never
// stored: most networks have neither, and the paper's has 15 000 links.
func (e *edge) name() string { return e.from.String() + "->" + e.to.String() }

// New builds and wires a network from the configuration.
func New(cfg *core.Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := cfg.Topo
	rng := sim.NewRNG(cfg.Seed)
	n := &Network{
		Cfg:        cfg,
		Switches:   make([]*core.Switch, d.NumSwitches()),
		Endpoints:  make([]*endpoint.Endpoint, d.NumEndpoints()),
		Collectors: endpoint.NewCollectorSet(d.NumEndpoints()),
	}
	swRNG := rng.Derive(1)
	epRNG := rng.Derive(2)
	for i := range n.Switches {
		n.Switches[i] = core.NewSwitch(i, cfg, swRNG)
	}
	for i := range n.Endpoints {
		ep := endpoint.New(int32(i), cfg, epRNG)
		ep.Collector = n.Collectors.Shard(i)
		n.Endpoints[i] = ep
	}
	if cfg.FaultActive() {
		n.Injector = fault.NewInjector(*cfg.Fault)
		for _, sf := range cfg.Fault.StashFailures {
			if sf.Switch >= len(n.Switches) || sf.Port >= d.Radix() {
				return nil, fmt.Errorf("network: stash failure at sw%d.%d outside the %d-switch radix-%d topology",
					sf.Switch, sf.Port, len(n.Switches), d.Radix())
			}
		}
	}
	// Wire every directed link exactly once, as seen from its producer, and
	// record it. Fault states attach by edge name; endpoint->switch and
	// switch->switch links run credit flow control, so drops on them
	// synthesize the lost credit.
	n.edges = make([]edge, 0, d.NumSwitches()*d.Radix()+d.NumEndpoints())
	wire := func(l *core.Link, class topo.LinkClass, from, to linkEnd) {
		e := edge{link: l, from: from, to: to, class: class}
		if n.Injector != nil {
			l.Fault = n.Injector.Link(e.name())
		}
		n.edges = append(n.edges, e)
	}
	for sw := 0; sw < d.NumSwitches(); sw++ {
		s := n.Switches[sw]
		for port := 0; port < d.Radix(); port++ {
			class := d.PortClass(port)
			here := linkEnd{int32(sw), int32(port)}
			if class == topo.Endpoint {
				ep := n.Endpoints[d.EndpointID(sw, port)]
				up := core.NewLink(cfg.Lat.Endpoint)   // endpoint -> switch
				down := core.NewLink(cfg.Lat.Endpoint) // switch -> endpoint
				wire(up, class, linkEnd{-1, ep.ID}, here)
				up.Credited = true
				wire(down, class, here, linkEnd{-1, ep.ID})
				s.AttachInLink(port, up)
				s.AttachOutLink(port, down, 0)
				ep.Attach(up, down, cfg.NormalInCap(topo.Endpoint))
				continue
			}
			nsw, nport := d.Neighbor(sw, port)
			l := core.NewLink(cfg.Lat.Of(class))
			wire(l, class, here, linkEnd{int32(nsw), int32(nport)})
			l.Credited = true
			s.AttachOutLink(port, l, cfg.NormalInCap(d.PortClass(nport)))
			n.Switches[nsw].AttachInLink(nport, l)
		}
	}
	if missing := n.Injector.UnmatchedOutages(); len(missing) > 0 {
		return nil, fmt.Errorf("network: fault plan names links that do not exist: %v", missing)
	}
	n.workers = 1
	n.repartition()
	return n, nil
}

// EnableMetrics names every switch's counts and gauges in reg and
// remembers it on the network; the tallies only a registry reports count
// from this call. Call between runs; pass the registry to later
// reporting. A nil registry is a no-op.
func (n *Network) EnableMetrics(reg *metrics.Registry) {
	n.Metrics = reg
	for _, s := range n.Switches {
		s.EnableMetrics(reg)
	}
}

// EnableTracing attaches the packet-lifecycle tracer to every switch and
// endpoint. A nil tracer detaches.
func (n *Network) EnableTracing(tr *metrics.Tracer) {
	n.Tracer = tr
	for _, s := range n.Switches {
		s.SetTracer(tr)
	}
	for _, ep := range n.Endpoints {
		ep.Tracer = tr
	}
}

// AttachSampler installs an occupancy sampler polled every `every` cycles
// with the standard network probes: network-wide stash fill, normal
// input/output buffer fill, and the endpoint injection backlog (flits).
func (n *Network) AttachSampler(every int64) *metrics.Sampler {
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
	n.Sampler = sp
	n.Observe(sp)
	return sp
}

// AttachWatchdog installs a stall watchdog: if window cycles pass with no
// flit delivered at any endpoint while work is pending, it dumps the state
// of every non-idle switch to out instead of spinning silently.
func (n *Network) AttachWatchdog(window int64, out io.Writer) *metrics.Watchdog {
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
		// Compose the dump at call time so a flight recorder attached in
		// either order (before or after the watchdog) contributes its
		// recent-cycle table; Dump on a nil recorder is a no-op.
		Dump: func(w io.Writer) {
			n.Flight.Dump(w, 64)
			n.DumpNonIdle(w)
		},
	}
	if n.Injector != nil {
		// Fault recovery masquerading as a stall: report active outage
		// windows, in-flight parity reconstructions, and recent stash-bank
		// failures (whose drains flow through retry/reconstruction timers)
		// instead of dumping switch state.
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
	n.Watchdog = w
	n.Observe(w)
	return w
}

// PendingReconstructions returns the network-wide count of in-flight
// parity rebuilds (0 unless StashParity is enabled and a bank recently
// failed).
func (n *Network) PendingReconstructions() int {
	total := 0
	for _, s := range n.Switches {
		total += s.PendingReconstructions()
	}
	return total
}

// EnableInvariants installs the runtime invariant checker, auditing the
// conservation laws every `every` cycles (values below one audit every
// cycle). The credited edges come from the link table: switch→switch links
// paired with the downstream input buffer, and endpoint→switch injection
// links paired with the end-port buffer.
func (n *Network) EnableInvariants(every int64) *core.Invariants {
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
	}
	for _, ep := range n.Endpoints {
		toSw, _ := ep.AuditLinks()
		iv.ExtLinks = append(iv.ExtLinks, toSw)
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
	n.Invariants = iv
	n.Observe(iv)
	return iv
}

// DumpNonIdle writes DumpState for every switch still holding flits.
func (n *Network) DumpNonIdle(w io.Writer) {
	for _, s := range n.Switches {
		if s.Busy() {
			io.WriteString(w, s.DumpState())
		}
	}
}

// Step advances the whole network one cycle. A caller that advances many
// cycles this way takes none of the executor's liberties — every component
// is awake on entry (see Run) and a one-cycle epoch lets no block run ahead
// of another — which makes it the reference the tests hold every other way
// of running to; RunUntil with a one-cycle check interval is the form that
// lets idle components sleep.
func (n *Network) Step() { n.Run(1) }

// SetWorkers selects how many workers Run steps the network's blocks on: 1
// (the default) steps every block inline on the calling goroutine;
// workers > 1 deals the blocks out in contiguous runs, each run on a
// long-lived goroutine, synchronized once per epoch (see repartition and
// sim.Executor). Values outside [1, switches] are clamped. Components
// communicate only over latency>=1 links and an epoch is never longer than
// the shortest link between two blocks, so results are bit-identical for
// any worker count. It may be called between runs at any
// point of a simulation; call Close when done with a parallel network to
// release the goroutines.
//
// A profiler the network built itself (EnableExecProfile) is resized to
// the new worker count, so EnableExecProfile and SetWorkers compose in
// either order; an externally attached profiler (SetExecProfiler) is
// left alone and must already match.
func (n *Network) SetWorkers(workers int) {
	workers = max(1, min(workers, len(n.Switches)))
	if workers == n.workers {
		return
	}
	n.workers = workers
	if n.profOwned && n.Profiler.Workers() != workers {
		n.Profiler = sim.NewExecProfiler(workers, n.profRing)
		n.Profiler.SetPhaseLabels("endpoints", "switches")
	}
	n.repartition()
}

// Close releases the worker goroutines, if any, by dropping the network
// back to one inline worker; later runs step on the calling goroutine
// until SetWorkers asks for a pool again.
func (n *Network) Close() { n.SetWorkers(1) }

// Run advances the network by the given number of cycles. Like every
// public run entry it starts with all components awake, so whatever the
// caller changed since the last run — a generator or delivery hook
// assigned to an endpoint, a message enqueued — is seen on the first
// cycle; components with nothing due go back to sleep after it.
func (n *Network) Run(cycles int64) {
	n.exec.WakeAll()
	n.run(cycles)
}

// run is Run without the wake-up: the continuation of a run in progress.
func (n *Network) run(cycles int64) {
	if cycles <= 0 {
		return
	}
	to := n.Now + sim.Tick(cycles)
	n.exec.Run(n.Now, to)
	n.Now = to
}

// RunUntil advances the network until done() reports true or the budget
// of cycles is exhausted, checking every checkEvery cycles (values below
// one are clamped to one — a non-positive interval must not spin the loop
// forever without advancing). It returns whether done() fired. It is one
// run: done may read anything but must not change component state other
// than through Endpoint.EnqueueMessage, or a sleeping component misses it.
func (n *Network) RunUntil(budget, checkEvery int64, done func() bool) bool {
	if checkEvery < 1 {
		checkEvery = 1
	}
	n.exec.WakeAll()
	for spent := int64(0); spent < budget; spent += checkEvery {
		step := checkEvery
		if rem := budget - spent; step > rem {
			step = rem
		}
		n.run(step)
		if done() {
			return true
		}
	}
	return done()
}

// Warmup runs the network with measurement disabled, then clears and
// re-enables the collectors. Experiments call this before their measured
// window so statistics reflect steady state. Safe on a network without
// collectors (every CollectorSet method is nil-receiver-safe).
func (n *Network) Warmup(cycles int64) {
	n.Collectors.SetEnabled(false)
	n.Run(cycles)
	n.Collectors.Reset()
	n.Collectors.SetEnabled(true)
}

// ChannelRate returns the channel capacity in flits per internal cycle.
func (n *Network) ChannelRate() float64 {
	return float64(n.Cfg.RateNum) / float64(n.Cfg.RateDen)
}

// Collector returns a merged snapshot of every endpoint's measurement
// shard, folded in fixed shard order. Call it after (or between) runs;
// the snapshot does not track later recording.
func (n *Network) Collector() *endpoint.Collector {
	return n.Collectors.Merged()
}

// NormalizedAccepted returns delivered data flits per node per cycle over
// the measured window, normalized so 1.0 is full channel capacity. A
// non-positive window or an endpoint-less network yields 0, not NaN.
func (n *Network) NormalizedAccepted(cycles int64) float64 {
	if cycles <= 0 || len(n.Endpoints) == 0 {
		return 0
	}
	per := float64(n.Collectors.TotalDeliveredFlits()) / float64(cycles) / float64(len(n.Endpoints))
	return per / n.ChannelRate()
}

// NormalizedOffered returns generated data flits per node per cycle over
// the measured window, normalized to channel capacity. A non-positive
// window or an endpoint-less network yields 0, not NaN.
func (n *Network) NormalizedOffered(cycles int64) float64 {
	if cycles <= 0 || len(n.Endpoints) == 0 {
		return 0
	}
	per := float64(n.Collectors.TotalOfferedFlits()) / float64(cycles) / float64(len(n.Endpoints))
	return per / n.ChannelRate()
}

// TotalStashUsed sums committed stash occupancy over all switches.
func (n *Network) TotalStashUsed() int {
	total := 0
	for _, s := range n.Switches {
		total += s.StashUsed()
	}
	return total
}

// TotalQueuedFlits sums endpoint injection backlogs.
func (n *Network) TotalQueuedFlits() int64 {
	var total int64
	for _, ep := range n.Endpoints {
		total += ep.QueuedFlits()
	}
	return total
}

// DeliveryTotals sums the exactly-once accounting across endpoints:
// distinct data packets injected, first deliveries, suppressed duplicate
// deliveries, and packets abandoned after retry exhaustion. None of the
// counts are gated by measurement warmup.
func (n *Network) DeliveryTotals() (injected, delivered, dups, abandoned int64) {
	for _, ep := range n.Endpoints {
		injected += ep.InjectedPkts
		delivered += ep.DeliveredUnique
		dups += ep.DupDelivered
		abandoned += ep.Abandoned
	}
	return
}

// Drain runs the network until every injected packet has been delivered
// exactly once or abandoned, up to budget extra cycles, and reports
// whether the network fully drained. Fault-recovery experiments call it
// after the measured window so delivery assertions cover in-flight and
// timer-pending packets.
func (n *Network) Drain(budget int64) bool { return n.RunUntil(budget, drainCheckEvery, n.drained) }

// drainCheckEvery is how often Drain looks whether the network has drained.
const drainCheckEvery = 256

// drained reports whether nothing is queued for injection and every
// injected packet has been delivered or abandoned.
func (n *Network) drained() bool {
	if n.TotalQueuedFlits() > 0 {
		return false
	}
	injected, delivered, _, abandoned := n.DeliveryTotals()
	return delivered+abandoned >= injected
}

// FaultStats returns the injected-fault counts merged across the per-link
// shards, or the zero value when no fault plan is active.
func (n *Network) FaultStats() fault.Stats {
	return n.Injector.Snapshot()
}

// Counters sums the per-switch counters.
func (n *Network) Counters() core.Counters {
	var c core.Counters
	for _, s := range n.Switches {
		c.Add(&s.Counters)
	}
	return c
}

// Describe returns a one-line summary of the configuration.
func (n *Network) Describe() string {
	d := n.Cfg.Topo
	return fmt.Sprintf("dragonfly p=%d a=%d h=%d (%d endpoints, %d switches, radix %d), mode=%s stash=%.0f%%",
		d.P, d.A, d.H, d.NumEndpoints(), d.NumSwitches(), d.Radix(),
		n.Cfg.Mode, n.Cfg.StashCapFrac*100)
}

// SanityCheck verifies cross-component invariants after a run; tests call
// it to catch flow-control leaks. It returns an error when an invariant is
// violated.
func (n *Network) SanityCheck() error {
	for _, s := range n.Switches {
		if used := s.StashUsed(); used < 0 || used > s.StashCapTotal() {
			return fmt.Errorf("switch %d stash occupancy %d outside [0,%d]", s.ID, used, s.StashCapTotal())
		}
	}
	return nil
}
