package network

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"testing"

	"stashsim/internal/buffer"
	"stashsim/internal/core"
	"stashsim/internal/endpoint"
	"stashsim/internal/fault"
	"stashsim/internal/metrics"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/topo"
	"stashsim/internal/traffic"
)

// The reference run. The executor takes two liberties: it steps a component
// only when its wake slot is due, which is safe because "a spurious wake is
// a no-op", and it runs one block through a whole epoch before it touches
// the next, which is safe because "nothing a block is sent during an epoch
// is due inside it". The public API already contains a run that takes
// neither: every run entry starts all awake and no epoch outlasts the run,
// so a network advanced one Run(1) at a time steps every component, every
// cycle, the whole network through cycle c before any of it sees c+1. That
// is the reference, and any other way of running must agree with it on
// everything observable: the summary statistics -json prints, every
// endpoint's delivery sequence, and the complete machine state —
// checkpoint bytes — at chosen cycles. Waking early can never show; waking
// late, or meeting input out of its time, shows as the first checkpoint
// that differs.

// runner is how a drive script advances its network: through the network's
// own run entries, or through the reference's.
type runner interface {
	Run(cycles int64)
	RunUntil(budget, checkEvery int64, done func() bool) bool
	Warmup(cycles int64)
	Drain(budget int64) bool
}

// reference advances a network one public Run(1) per cycle. RunUntil,
// Warmup and Drain are the network's own, word for word, over that Run, so
// stop checks and the drain's check schedule fall on the same cycles.
type reference struct{ n *Network }

func (r reference) Run(cycles int64) {
	for ; cycles > 0; cycles-- {
		r.n.Run(1)
	}
}

func (r reference) RunUntil(budget, checkEvery int64, done func() bool) bool {
	for spent := int64(0); spent < budget; spent += checkEvery {
		r.Run(min(checkEvery, budget-spent))
		if done() {
			return true
		}
	}
	return done()
}

func (r reference) Warmup(cycles int64) {
	r.n.Collectors.SetEnabled(false)
	r.Run(cycles)
	r.n.Collectors.Reset()
	r.n.Collectors.SetEnabled(true)
}

func (r reference) Drain(budget int64) bool {
	return r.RunUntil(budget, drainCheckEvery, r.n.drained)
}

// wakeObs is everything a run lets an observer see.
type wakeObs struct {
	cycles     []int64  // cycles at which trail was taken
	trail      [][]byte // checkpoint bytes at those cycles
	final      []byte   // checkpoint bytes when the drive returned
	summary    []byte   // the statistics the CLI's -json is made of
	deliveries [][]endpoint.Delivery
	perEP      [][2]int64 // each endpoint's InjectedPkts, DeliveredUnique
}

// observe starts recording n's deliveries and schedules a checkpoint at
// the serial barrier before each of the given cycles (ascending).
func observe(n *Network, at ...int64) *wakeObs {
	o := &wakeObs{deliveries: make([][]endpoint.Delivery, len(n.Endpoints))}
	for i, ep := range n.Endpoints {
		i := i
		ep.OnDelivered = func(d endpoint.Delivery) { o.deliveries[i] = append(o.deliveries[i], d) }
	}
	var hook func(now sim.Tick)
	hook = func(now sim.Tick) {
		o.cycles = append(o.cycles, int64(now))
		o.trail = append(o.trail, n.Checkpoint(now))
		if at = at[1:]; len(at) > 0 {
			n.ScheduleCheckpoint(at[0], hook)
		}
	}
	if len(at) > 0 {
		n.ScheduleCheckpoint(at[0], hook)
	}
	return o
}

// everyCycle returns the cycles from..to-1, for a checkpoint after every
// cycle of a window: a component that wakes even one cycle late shows. In
// -short mode (the race pass, which is after data races, not late wakes)
// it thins the window to every seventh cycle.
func everyCycle(from, to int64) []int64 {
	step := int64(1)
	if testing.Short() {
		step = 7
	}
	var at []int64
	for c := from; c < to; c += step {
		at = append(at, c)
	}
	return at
}

// finish closes the observation with the final state and the summary.
func (o *wakeObs) finish(n *Network) *wakeObs {
	o.final = n.Checkpoint(n.Now)
	for _, ep := range n.Endpoints {
		o.perEP = append(o.perEP, [2]int64{ep.InjectedPkts, ep.DeliveredUnique})
	}
	col := n.Collector()
	injected, delivered, dups, abandoned := n.DeliveryTotals()
	sum := struct {
		Now                                   int64
		Counters                              core.Counters
		Fault                                 fault.Stats
		Injected, Delivered, Dups, Abandoned  int64
		Offered, DeliveredFlits, DeliveredPkt [proto.NumClasses]int64
		LatMean, LatMax                       [proto.NumClasses]float64
		Acks, Retransmits, Recovered          int64
		StashUsed                             int
		Queued                                int64
	}{
		Now: int64(n.Now), Counters: n.Counters(), Fault: n.FaultStats(),
		Injected: injected, Delivered: delivered, Dups: dups, Abandoned: abandoned,
		Offered: col.OfferedFlits, DeliveredFlits: col.DeliveredFlits, DeliveredPkt: col.DeliveredPkts,
		Acks: col.Acks, Retransmits: col.EndpointRetransmits, Recovered: col.RecoveredPkts,
		StashUsed: n.TotalStashUsed(), Queued: n.TotalQueuedFlits(),
	}
	for c := range col.LatAcc {
		sum.LatMean[c], sum.LatMax[c] = col.LatAcc[c].Mean(), col.LatAcc[c].Max
	}
	var err error
	if o.summary, err = json.MarshalIndent(sum, "", "  "); err != nil {
		panic(err)
	}
	return o
}

// mustEqual fails the test at the first observable difference from the
// reference run.
func (o *wakeObs) mustEqual(t *testing.T, ref *wakeObs) {
	t.Helper()
	if fmt.Sprint(o.cycles) != fmt.Sprint(ref.cycles) {
		t.Fatalf("checkpoints fired at cycles %v, reference at %v", o.cycles, ref.cycles)
	}
	for i := range o.trail {
		if !bytes.Equal(o.trail[i], ref.trail[i]) {
			t.Fatalf("machine state differs from the reference at cycle %d (checkpoint %d of %d): a component woke late, or met input out of its time",
				o.cycles[i], i+1, len(o.trail))
		}
	}
	if !bytes.Equal(o.summary, ref.summary) {
		t.Fatalf("summary differs from the reference:\n--- run ---\n%s\n--- reference ---\n%s", o.summary, ref.summary)
	}
	for i := range o.deliveries {
		if fmt.Sprint(o.deliveries[i]) != fmt.Sprint(ref.deliveries[i]) {
			t.Fatalf("endpoint %d deliveries differ from the reference:\n%v\n%v", i, o.deliveries[i], ref.deliveries[i])
		}
		if o.perEP[i] != ref.perEP[i] {
			t.Fatalf("endpoint %d injected/delivered %v packets, reference %v", i, o.perEP[i], ref.perEP[i])
		}
	}
	if !bytes.Equal(o.final, ref.final) {
		t.Fatalf("final machine state differs from the reference")
	}
}

// mustMatchAwake drives a sleeping network and a twin advanced as the
// reference through the same script and requires them to be
// indistinguishable. drive must observe() and finish(), and advance n only
// through run.
func mustMatchAwake(t *testing.T, build func() *Network, drive func(n *Network, run runner) *wakeObs) *wakeObs {
	t.Helper()
	ref := build()
	want := drive(ref, reference{ref})
	ref.Close()
	n := build()
	got := drive(n, n)
	n.Close()
	got.mustEqual(t, want)
	return got
}

// quietNet builds a tiny network with no generators: nothing happens in
// it but what the test puts in, so every component sleeps unless one
// specific wake source reaches it.
func quietNet(t testing.TB, mutate func(cfg *core.Config)) *Network {
	t.Helper()
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	if mutate != nil {
		mutate(cfg)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

// farEndpoint returns an endpoint in another group than endpoint 0's, so a
// message to it crosses local and global links.
func farEndpoint(n *Network) int32 { return int32(len(n.Endpoints) - 1) }

// TestWakeOnFlitAndCredit: one message crosses an otherwise idle network.
// Every switch on the way is asleep when the head flit is sent to it, and
// the sender sleeps once its queue is empty, so only the link pushes'
// wake-slot stores step them: without the flit store the message is never
// delivered, without the credit store the returned credits sit on their
// rings (the per-cycle checkpoints differ) until something else comes by.
func TestWakeOnFlitAndCredit(t *testing.T) {
	got := mustMatchAwake(t, func() *Network { return quietNet(t, nil) }, func(n *Network, run runner) *wakeObs {
		o := observe(n, everyCycle(1, 400)...)
		n.Endpoints[0].EnqueueMessage(farEndpoint(n), 3*proto.MaxPacketFlits, proto.ClassDefault, 1)
		run.Run(600)
		return o.finish(n)
	})
	if d := got.deliveries[len(got.deliveries)-1]; len(d) != 3 {
		t.Fatalf("%d packets delivered across the sleeping network, want 3", len(d))
	}
}

// synthNet builds a quiet baseline network in which every flit the
// producer on side ("endpoint": endpoint 0; "switch": switch 0) sends on a
// credited link is dropped (an outage), so its credits come back only as
// synthesized entries on its own synth ring, two link latencies later.
// No retry timers are armed.
func synthNet(t *testing.T, side string) *Network {
	return quietNet(t, func(cfg *core.Config) {
		cfg.Mode = core.StashOff
		links := []string{"ep0->sw0.0"}
		if side == "switch" {
			links = nil
			for p, d := 0, cfg.Topo; p < d.Radix(); p++ {
				if d.PortClass(p) != topo.Endpoint {
					nsw, np := d.Neighbor(0, p)
					links = append(links, fmt.Sprintf("sw0.%d->sw%d.%d", p, nsw, np))
				}
			}
		}
		cfg.Fault = &fault.Plan{Seed: 3}
		for _, l := range links {
			cfg.Fault.Outages = append(cfg.Fault.Outages, fault.Outage{Link: l, Start: 0, End: 10000})
		}
	})
}

// creditedLink is one of a producer's credited links and its view of the
// downstream buffer: what it may still send there.
type creditedLink struct {
	link    *core.Link
	credits *buffer.CreditCounter
}

func (c creditedLink) free() int {
	n := c.credits.SharedFree()
	for vc := 0; vc < c.credits.NumVCs(); vc++ {
		n += c.credits.ResvFree(vc)
	}
	return n
}

// producerLinks returns synthNet's producer's credited links.
func producerLinks(n *Network, side string) []creditedLink {
	if side == "endpoint" {
		toSw, _ := n.Endpoints[0].AuditLinks()
		return []creditedLink{{toSw, n.Endpoints[0].AuditCredits()}}
	}
	var out []creditedLink
	for p := 0; p < n.Cfg.Topo.Radix(); p++ {
		if cc := n.Switches[0].AuditOutCredits(p); cc != nil {
			out = append(out, creditedLink{n.Switches[0].AuditOutLink(p), cc})
		}
	}
	return out
}

// TestWakeOnSynthCredit: in synthNet the producer has long been idle when
// its synthesized credits come due, so the synth ring's due time is the one
// thing that steps it then — for the switch, through the port's credit due
// slot, which the synthesized credit lowers like any other. The producer is
// endpoint 0 in one case and its switch in the other.
func TestWakeOnSynthCredit(t *testing.T) {
	for _, side := range []string{"endpoint", "switch"} {
		t.Run(side, func(t *testing.T) {
			build := func() *Network { return synthNet(t, side) }
			avail := func(n *Network) (free []int) {
				for _, c := range producerLinks(n, side) {
					for vc := 0; vc < c.credits.NumVCs(); vc++ {
						free = append(free, c.credits.Avail(vc))
					}
				}
				return free
			}
			var after []int
			got := mustMatchAwake(t, build, func(n *Network, run runner) *wakeObs {
				o := observe(n, everyCycle(1, 120)...)
				n.Endpoints[0].EnqueueMessage(farEndpoint(n), proto.MaxPacketFlits, proto.ClassDefault, 1)
				run.Run(200)
				after = avail(n)
				return o.finish(n)
			})
			if n := len(got.deliveries[len(got.deliveries)-1]); n != 0 {
				t.Fatalf("%d packets delivered through an outage", n)
			}
			// Equal runs could both have lost the credits; they must be back.
			if before := avail(build()); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("the %s's credits read %v after its flits were dropped, %v before: a synthesized credit was never folded", side, after, before)
			}
			var fs struct{ Fault fault.Stats }
			if err := json.Unmarshal(got.summary, &fs); err != nil || fs.Fault.OutagePkts == 0 {
				t.Fatalf("the outage dropped nothing (%v): the test exercised no synthesized credit", err)
			}
		})
	}
}

// atEveryCycle is an Observer that calls fn after every cycle.
type atEveryCycle func(now int64)

func (atEveryCycle) NextEventAt(from int64) int64 { return from }
func (fn atEveryCycle) AtBarrier(now int64)       { fn(now) }

// TestSynthCreditOnTime is TestWakeOnSynthCredit's absolute form, cycle by
// cycle: a flit dropped at cycle t has its credit back in the producer's
// counter after cycle t + 2·Latency, not before and not later. The
// equivalence cannot see a credit folded late when the reference folds it
// late too, and on a switch that is already awake at t + 2·Latency — the
// dropped flit's retention window is released then — only a probe of the
// right port's slot folds it.
func TestSynthCreditOnTime(t *testing.T) {
	for _, side := range []string{"endpoint", "switch"} {
		t.Run(side, func(t *testing.T) {
			n := synthNet(t, side)
			links := producerLinks(n, side)
			full := make([]int, len(links))
			dropped := make([][]int64, len(links)) // dropped[i][c]: flits dropped on link i by the end of cycle c
			for i, c := range links {
				full[i] = c.free()
			}
			folds := 0
			n.Observe(atEveryCycle(func(now int64) {
				for i, c := range links {
					dropped[i] = append(dropped[i], c.link.FaultDropped())
					owed := dropped[i][now]
					if due := now - 2*c.link.Latency; due >= 0 {
						owed -= dropped[i][due] // dropped by cycle now-2L: folded by now
						folds += int(dropped[i][due])
					}
					if got := c.free(); got != full[i]-int(owed) {
						t.Fatalf("cycle %d, link %d (latency %d): %d credits free, want %d: %d flits dropped in the last %d cycles are owed",
							now, i, c.link.Latency, got, full[i]-int(owed), owed, 2*c.link.Latency)
					}
				}
			}))
			n.Endpoints[0].EnqueueMessage(farEndpoint(n), 2*proto.MaxPacketFlits, proto.ClassDefault, 1)
			n.Run(400)
			if folds == 0 {
				t.Fatal("no synthesized credit came due: the test exercised nothing")
			}
		})
	}
}

// TestWakeOnEpochDrain: the same single message with the network cut into
// partitions, so some hops are partition-crossing links whose pushes are
// staged and never touch the consumer's wake slot: only the consumer's own
// epoch drain wakes it, for flits going forward and for credits coming
// back. 2 workers cut tiny by group (global links cross, 65-cycle
// epochs), 12 by switch (local links too, 13-cycle epochs). No checkpoint
// trail here — it would cut every epoch to one cycle — and a sweep of
// message lengths instead: a returned credit strands on a sleeping
// producer only when the drain that delivers it comes after the producer's
// last retention release, which depends on where in the epoch the tail
// flit left.
func TestWakeOnEpochDrain(t *testing.T) {
	for _, workers := range []int{2, 12} {
		t.Run("w"+strconv.Itoa(workers), func(t *testing.T) {
			for extra := 0; extra < 2*proto.MaxPacketFlits; extra += 1 + extra/8 {
				drive := func(n *Network, run runner) *wakeObs {
					o := observe(n)
					n.Endpoints[0].EnqueueMessage(farEndpoint(n), proto.MaxPacketFlits+extra, proto.ClassDefault, 1)
					run.Run(800)
					return o.finish(n)
				}
				// The reference on one worker: it stages no link, and a
				// barrier round per cycle on twelve would show nothing more.
				ref := quietNet(t, nil)
				want := drive(ref, reference{ref})
				n := quietNet(t, nil)
				n.SetWorkers(workers)
				got := drive(n, n)
				n.Close()
				got.mustEqual(t, want)
				if d := got.deliveries[len(got.deliveries)-1]; len(d) == 0 {
					t.Fatalf("nothing delivered across partitions (message of %d flits)", proto.MaxPacketFlits+extra)
				}
			}
		})
	}
}

// TestWakeOnRetentionAndSideband: in baseline mode a switch that forwarded
// the tail of the only packet around holds nothing but the output buffer's
// retention window, released one link round trip later — and on the
// ejection port no credit ever comes back to wake it. In e2e mode the
// first-hop switch additionally owes itself a side-band location message
// (stash port -> end port) and, after the ACK, a delete. Both are due
// times only NextWake knows about.
func TestWakeOnRetentionAndSideband(t *testing.T) {
	for _, mode := range []core.StashMode{core.StashOff, core.StashE2E} {
		t.Run(mode.String(), func(t *testing.T) {
			build := func() *Network { return quietNet(t, func(cfg *core.Config) { cfg.Mode = mode }) }
			mustMatchAwake(t, build, func(n *Network, run runner) *wakeObs {
				o := observe(n, everyCycle(1, 500)...)
				n.Endpoints[0].EnqueueMessage(farEndpoint(n), proto.MaxPacketFlits, proto.ClassDefault, 1)
				run.Run(700)
				return o.finish(n)
			})
		})
	}
}

// TestWakeOnTimerScans: with the recovery timers armed, the first-hop
// switch and the source endpoint each hold a timer record for the one
// packet sent. The ACK settles it, and the record goes stale; it is
// dropped by the next scan, on a multiple of Retrans.ScanEvery, when
// switch and endpoint are otherwise idle. A second message, whose ACKs
// are lost in an outage, makes both timers actually fire and resend.
func TestWakeOnTimerScans(t *testing.T) {
	build := func() *Network {
		return quietNet(t, func(cfg *core.Config) {
			cfg.Retrans = core.DefaultRetrans()
			cfg.Retrans.SwitchTimeout, cfg.Retrans.EndpointTimeout = 500, 3000
			cfg.RetainPayload = true
			far := cfg.Topo.NumEndpoints() - 1
			sw, port := cfg.Topo.EndpointSwitch(far)
			cfg.Fault = &fault.Plan{Seed: 3, Outages: []fault.Outage{
				{Link: fmt.Sprintf("ep%d->sw%d.%d", far, sw, port), Start: 2000, End: 4000}}}
		})
	}
	got := mustMatchAwake(t, build, func(n *Network, run runner) *wakeObs {
		at := append(everyCycle(1, 700), everyCycle(2000, 2400)...)
		at = append(at, 3000, 4000, 5000, 6000, 7000, 9000)
		o := observe(n, at...)
		done := func() bool {
			if n.Now == 2000 {
				n.Endpoints[0].EnqueueMessage(farEndpoint(n), proto.MaxPacketFlits, proto.ClassDefault, 2)
			}
			return false
		}
		n.Endpoints[0].EnqueueMessage(farEndpoint(n), proto.MaxPacketFlits, proto.ClassDefault, 1)
		run.RunUntil(12000, 1, done)
		return o.finish(n)
	})
	var s struct {
		Counters    core.Counters
		Retransmits int64
	}
	if err := json.Unmarshal(got.summary, &s); err != nil || s.Counters.RetryTimeouts == 0 || s.Retransmits == 0 {
		t.Fatalf("no timer fired (switch timeouts %d, endpoint resends %d, err %v): the test exercised no scan",
			s.Counters.RetryTimeouts, s.Retransmits, err)
	}
}

// TestWakeOnEnqueueMessage: a message handed to a sleeping endpoint in the
// middle of a run (from RunUntil's stop check, the way trace.Replay's
// initial sends and any scripted driver do) must start injecting on the
// next cycle. Nothing else is going on, so without EnqueueMessage's poke
// the endpoint sleeps for ever.
func TestWakeOnEnqueueMessage(t *testing.T) {
	got := mustMatchAwake(t, func() *Network { return quietNet(t, nil) }, func(n *Network, run runner) *wakeObs {
		o := observe(n, everyCycle(90, 200)...)
		run.RunUntil(800, 1, func() bool {
			if n.Now == 100 {
				n.Endpoints[5].EnqueueMessage(farEndpoint(n), proto.MaxPacketFlits, proto.ClassDefault, 7)
			}
			return false
		})
		return o.finish(n)
	})
	if d := got.deliveries[len(got.deliveries)-1]; len(d) != 1 || d[0].MsgID != 7 {
		t.Fatalf("deliveries %v, want the one message enqueued at cycle 100", d)
	}
}

// TestWakeOnBankFailure: switch 0 holds a sealed parity group of two
// copies whose ACKs are a network round trip away, and sleeps: no timers
// are armed, and the packets left over a local link, whose retention
// window is long released, towards a group switch 0 has no global link
// to. Then one of its banks fails. The serial FailStashBank hook queues
// the reconstruction on the sleeping switch and must poke it, and the
// rebuild's completion time is then a NextWake term of its own. (k=2: on
// tiny's five banks a k=4 group plus its parity leaves no bank to rebuild
// into.)
func TestWakeOnBankFailure(t *testing.T) {
	build := func() *Network {
		return quietNet(t, func(cfg *core.Config) {
			cfg.StashParity = 2
			cfg.Fault = &fault.Plan{Seed: 3, StashFailures: []fault.StashFail{{Switch: 0, Port: 0, At: 150}}}
		})
	}
	got := mustMatchAwake(t, build, func(n *Network, run runner) *wakeObs {
		d := n.Cfg.Topo
		direct := map[int]bool{0: true}
		for k := 0; k < d.H; k++ {
			nsw, _ := d.Neighbor(0, d.GlobalPort(k))
			direct[d.Group(nsw)] = true
		}
		g := 0
		for direct[g] {
			g++
		}
		dst := int32(d.EndpointID(d.SwitchID(g, 0), 0))
		o := observe(n, everyCycle(100, 400)...)
		for i := 0; i < d.P; i++ {
			n.Endpoints[i].EnqueueMessage(dst, proto.MaxPacketFlits, proto.ClassDefault, uint32(i))
		}
		run.Run(700)
		return o.finish(n)
	})
	var s struct{ Counters core.Counters }
	if err := json.Unmarshal(got.summary, &s); err != nil || s.Counters.StashReconstructed == 0 {
		t.Fatalf("no copy was reconstructed (err %v, counters %+v): the test exercised no rebuild", err, s.Counters)
	}
}

// TestWakeOnRunEntry: state assigned to components between runs — the
// only way generators and delivery hooks are ever installed — is seen on
// the first cycle of the next run although every component went to sleep
// during the previous one, because every public run entry starts all
// awake. The reference run is built on exactly that, so it is pinned here
// on its own terms and not against the reference: at each entry, a
// generator installed on a sleeping endpoint is called on the entry's first
// cycle, and that cycle steps every component of the network.
func TestWakeOnRunEntry(t *testing.T) {
	n := quietNet(t, nil)
	prof := n.EnableExecProfile(0)
	stepped := func() (total int64) {
		for _, lane := range prof.Report().Lanes {
			for _, ph := range lane.Phases {
				total += ph.Stepped
			}
		}
		return
	}
	eps, all := int64(len(n.Endpoints)), int64(len(n.Endpoints)+len(n.Switches))
	n.Run(100) // the endpoints' serialization accumulators fill, once
	never := func() bool { return false }
	for _, entry := range []struct {
		name   string
		cycles int64
		enter  func()
	}{
		{"Run", 3, func() { n.Run(3) }},
		{"Step", 1, n.Step},
		{"RunUntil", 3, func() { n.RunUntil(3, 2, never) }},
		{"Warmup", 3, func() { n.Warmup(3) }},
		{"Drain", 3, func() { n.Drain(3) }},
	} {
		before := stepped()
		n.Run(100)
		if got := stepped() - before; got != all {
			t.Fatalf("%s: the idle network stepped %d component-cycles in 100 cycles, want %d (one cycle awake, then asleep)", entry.name, got, all)
		}
		first := make([]sim.Tick, len(n.Endpoints))
		for i, ep := range n.Endpoints {
			i := i
			first[i] = sim.Never
			ep.Gen = func(now sim.Tick, _ *endpoint.Endpoint) sim.Tick {
				first[i] = min(first[i], now)
				return now + 1
			}
		}
		at, before := n.Now, stepped()
		entry.enter()
		for _, ep := range n.Endpoints {
			ep.Gen = nil
		}
		for i, c := range first {
			if c != at {
				t.Fatalf("%s entered at cycle %d: the generator installed on sleeping endpoint %d first ran at cycle %d", entry.name, at, i, c)
			}
		}
		// Every component on the first cycle; after it only the endpoints,
		// which a generator keeps awake.
		if got, want := stepped()-before, all+(entry.cycles-1)*eps; got != want {
			t.Fatalf("%s entered at cycle %d: %d component-cycles stepped in %d cycles, want %d", entry.name, at, got, entry.cycles, want)
		}
	}
}

// TestWakeAcrossRestoreAndRepartition: a checkpoint taken while most of
// the network sleeps restores into a fresh network (whose wake table
// starts all awake), and a worker-count change in the middle of the
// traffic rebuilds the table and rewires every link's slot pointers into
// it; both continue exactly as the reference run does.
func TestWakeAcrossRestoreAndRepartition(t *testing.T) {
	send := func(n *Network) {
		for i := 0; i < 4; i++ {
			n.Endpoints[3*i].EnqueueMessage(farEndpoint(n)-int32(i), 2*proto.MaxPacketFlits, proto.ClassDefault, uint32(i))
		}
	}
	var snap []byte
	mustMatchAwake(t, func() *Network { return quietNet(t, nil) }, func(n *Network, run runner) *wakeObs {
		o := observe(n, append([]int64{60}, everyCycle(61, 400)...)...)
		send(n)
		run.Run(47)
		n.SetWorkers(3) // mid-flight: flits on rings, credits outstanding
		run.Run(40)
		n.SetWorkers(12)
		run.Run(40)
		n.SetWorkers(1)
		run.Run(500)
		snap = o.trail[0]
		return o.finish(n)
	})
	straight := func() *Network {
		n := quietNet(t, nil)
		if err := n.Restore(snap); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		return n
	}
	mustMatchAwake(t, straight, func(n *Network, run runner) *wakeObs {
		o := observe(n, everyCycle(61, 400)...)
		run.Run(627 - int64(n.Now))
		return o.finish(n)
	})
}

// TestCyclesMetricCountsSleptCycles: sw<id>.cycles is simulated cycles, not
// Step calls. In a network that sleeps through nearly every cycle it still
// reads the clock — at a serial hook in the middle of a run, after a run,
// and across any mix of run entries — so attaching a registry neither pins
// the switches awake nor under-counts.
func TestCyclesMetricCountsSleptCycles(t *testing.T) {
	n := quietNet(t, nil)
	n.Run(40) // before the registry is attached: not counted
	reg := metrics.NewRegistry()
	n.EnableMetrics(reg)
	per := func() int64 { return reg.Sum("cycles") / int64(len(n.Switches)) }
	var mid int64
	n.ScheduleCheckpoint(163, func(sim.Tick) { mid = per() })
	n.Run(300)
	n.Step()
	n.RunUntil(200, 7, func() bool { return false })
	if mid != 163-40 || per() != 501 || reg.Sum("cycles")%int64(len(n.Switches)) != 0 {
		t.Fatalf("cycles metric read %d at cycle 163 and %d at cycle %d, want 123 and 501 per switch", mid, per(), n.Now)
	}
	prof := n.EnableExecProfile(0)
	n.Run(100)
	var stepped, skipped int64
	for _, lane := range prof.Report().Lanes {
		for _, ph := range lane.Phases {
			stepped, skipped = stepped+ph.Stepped, skipped+ph.Skipped
		}
	}
	// One cycle all awake (the run entry), then nothing to do.
	if all := int64(len(n.Switches) + len(n.Endpoints)); stepped != all || skipped != 99*all {
		t.Fatalf("an idle network stepped %d and skipped %d component-cycles in 100 cycles, want %d and %d", stepped, skipped, all, 99*all)
	}
}

// wakeGridKind is one behaviour regime of the grid.
type wakeGridKind struct {
	name  string
	setup func(cfg *core.Config)
}

var wakeGridKinds = []wakeGridKind{
	{"e2e", func(cfg *core.Config) { cfg.Mode = core.StashE2E }},
	{"ecn", func(cfg *core.Config) {
		cfg.Mode = core.StashCongestion
		cfg.ECN = core.DefaultECN()
	}},
	{"faults-parity", func(cfg *core.Config) {
		cfg.Mode = core.StashE2E
		cfg.StashParity = 4
		cfg.Retrans = core.DefaultRetrans()
		cfg.RetainPayload = true
		// Bank failures in the loaded, the sparse and the silent phase.
		cfg.Fault = &fault.Plan{Seed: 9, LinkDropRate: 2e-3, CorruptRate: 1e-3,
			StashFailures: []fault.StashFail{
				{Switch: 0, Port: 0, At: 600}, {Switch: 1, Port: 1, At: 1900},
				{Switch: 2, Port: 0, At: 2700}, {Switch: 0, Port: 2, At: 2750}}}
	}},
}

// The generator dimension of the grids. A generator is defined by its
// per-cycle form; the ones of package traffic look ahead to their next
// arrival and let the endpoint sleep until then, and a checkpoint writes
// their stream as the per-cycle form would have left it. So the reference
// runs the per-cycle forms (perCycleGen), and the sleeping run is held to
// what the generators drew before they looked ahead — in every checkpoint
// too — not to itself. genKinds: "uniform" starts at once, "delayed" at
// cycle genDelay (its endpoint is stepped every cycle until then),
// "permutation" sends all its traffic to one partner, "mixed" deals the
// three out round robin over the endpoints.
var genKinds = []string{"uniform", "delayed", "permutation", "mixed"}

const genDelay = 150

// perCycleGen is traffic.Uniform's (partner < 0) and traffic.Permutation's
// per-cycle form: the draw loop they ran before they looked ahead, one
// Bernoulli draw a cycle from start on and the destination's draws after
// each hit.
func perCycleGen(rng *sim.RNG, numEndpoints int, partner int32, load, rate float64, start sim.Tick) func(sim.Tick, *endpoint.Endpoint) sim.Tick {
	p := load * rate / float64(proto.MaxPacketFlits)
	return func(now sim.Tick, e *endpoint.Endpoint) sim.Tick {
		if now >= start && rng.Bernoulli(p) {
			dst := partner
			for dst < 0 || dst == e.ID {
				dst = int32(rng.Intn(numEndpoints))
			}
			e.EnqueueMessage(dst, proto.MaxPacketFlits, proto.ClassDefault, 0)
		}
		return now + 1
	}
}

// installGen gives endpoint i generator kind g at the given load, drawing
// from gen (which it also hands the endpoint as GenRNG): the traffic
// package's, or with perCycle its per-cycle form.
func installGen(n *Network, i int, g string, gen *sim.RNG, load float64, perCycle bool) {
	ep, rate, N := n.Endpoints[i], n.ChannelRate(), len(n.Endpoints)
	if g == "mixed" {
		g = genKinds[i%3]
	}
	var start sim.Tick
	partner := int32(-1)
	switch g {
	case "delayed":
		start = genDelay
	case "permutation":
		partner = int32((i + N/2) % N)
	}
	ep.GenRNG = gen
	switch {
	case perCycle:
		ep.Gen = perCycleGen(gen, N, partner, load, rate, start)
	case partner >= 0:
		ep.Gen = traffic.Permutation(gen, partner, load, rate, proto.MaxPacketFlits, proto.ClassDefault)
	default:
		ep.Gen = traffic.Uniform(gen, N, nil, load, rate, proto.MaxPacketFlits, proto.ClassDefault, start)
	}
}

// driveWakeGrid is the grid's script: a loaded phase, a sparse phase in
// which one endpoint in nine still generates, a silent phase with a few
// scripted messages, and a drain — with the machine state captured in the
// middle of each of the first three and right at the start of the sparse
// one, where the removed generators' draws ahead are still on their
// streams. The endpoints run the mixed generators; the reference, their
// per-cycle forms.
func driveWakeGrid(n *Network, run runner, kind string) *wakeObs {
	o := observe(n, 700, 1200, 2000, 2900)
	_, perCycle := run.(reference)
	rng := sim.NewRNG(n.Cfg.Seed + 77)
	load := 0.25
	if kind == "ecn" {
		load = 0.4
	}
	for i, ep := range n.Endpoints {
		gen := rng.Derive(uint64(ep.ID))
		if kind == "ecn" && i%11 == 3 {
			ep.GenRNG = gen
			ep.Gen = traffic.Hotspot(int32(i%2), proto.MaxPacketFlits, proto.ClassAggressor, 0)
			continue
		}
		installGen(n, i, "mixed", gen, load, perCycle)
	}
	run.Warmup(400)
	run.Run(800)
	for i, ep := range n.Endpoints {
		if i%9 != 0 || kind == "ecn" && i%11 == 3 {
			ep.Gen = nil
		}
	}
	run.Run(1300)
	for _, ep := range n.Endpoints {
		ep.Gen = nil
	}
	run.RunUntil(1000, 100, func() bool {
		k := int(n.Now/100) % len(n.Endpoints)
		n.Endpoints[k].EnqueueMessage(int32((k+len(n.Endpoints)/2)%len(n.Endpoints)), 2*proto.MaxPacketFlits, proto.ClassDefault, uint32(k))
		return false
	})
	run.Drain(400000)
	return o.finish(n)
}

// TestSpuriousWakeIsNoop is the invariant over the configurations the
// goldens pin: presets x {e2e, congestion + ECN, faults + parity k=4} x
// workers {1, 2, 12} x epochs {free-running, held to one cycle by an
// observer}, every run with uniform, delayed-start and permutation
// generators, most of them removed mid-run. Each point's sleeping run must
// be indistinguishable from the regime's reference run (on one worker:
// results do not depend on the count, which TestEpochMatchesSerial pins
// separately and this grid re-checks for free), whose generators are the
// per-cycle forms.
func TestSpuriousWakeIsNoop(t *testing.T) {
	presets := []string{"tiny", "small"}
	if testing.Short() {
		presets = presets[:1]
	}
	for _, preset := range presets {
		for _, kind := range wakeGridKinds {
			preset, kind := preset, kind
			t.Run(preset+"/"+kind.name, func(t *testing.T) {
				t.Parallel()
				build := func() *Network {
					cfg := core.TinyConfig()
					if preset == "small" {
						cfg = core.SmallConfig()
					}
					kind.setup(cfg)
					n, err := New(cfg)
					if err != nil {
						t.Fatalf("New: %v", err)
					}
					return n
				}
				ref := build()
				want := driveWakeGrid(ref, reference{ref}, kind.name)
				for _, workers := range []int{1, 2, 12} {
					for _, perCycle := range []bool{false, true} {
						if testing.Short() && perCycle && workers != 2 {
							continue
						}
						n := build()
						n.SetWorkers(workers)
						if perCycle {
							n.Observe(every(1))
						}
						got := driveWakeGrid(n, n, kind.name)
						n.Close()
						t.Logf("workers=%d perCycle=%v", workers, perCycle)
						got.mustEqual(t, want)
					}
				}
			})
		}
	}
}

// FuzzWakeEquivalence searches for a configuration in which sleeping or
// block-by-block stepping shows: generated small dragonflies x load x
// generator kind x fault plan x parity x worker count x the way the run is
// chunked into public Run calls (each of which starts all awake and ends
// an epoch, so chunking moves where components fall asleep and where
// blocks take turns). The reference is the same network advanced one
// Run(1) per cycle, running the generators' per-cycle forms; the
// generators are removed mid-run, with a checkpoint right there.
func FuzzWakeEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(1), uint8(0), uint8(0), false, uint16(0), uint8(0))
	f.Add(uint64(2), uint8(1), uint8(0), uint8(1), uint8(7), true, uint16(37), uint8(1))
	f.Add(uint64(3), uint8(2), uint8(2), uint8(2), uint8(3), true, uint16(1), uint8(2))
	f.Add(uint64(4), uint8(3), uint8(1), uint8(3), uint8(4), false, uint16(500), uint8(0))
	f.Add(uint64(5), uint8(2), uint8(0), uint8(0), uint8(5), true, uint16(64), uint8(1))
	topos := []topo.Dragonfly{{P: 1, A: 2, H: 1}, {P: 2, A: 2, H: 1}, {P: 2, A: 4, H: 2}, {P: 3, A: 3, H: 1}}
	loads := []float64{0.03, 0.15, 0.45}
	f.Fuzz(func(t *testing.T, seed uint64, topoSel, loadSel, genSel, faults uint8, parity bool, chunk uint16, workers uint8) {
		d := topos[int(topoSel)%len(topos)]
		build := func() *Network {
			cfg := core.TinyConfig()
			cfg.Topo = d
			half := (d.Radix() + 1) / 2
			cfg.Rows, cfg.Cols, cfg.TileIn, cfg.TileOut = 2, 2, half, half
			cfg.Mode = core.StashE2E
			cfg.Seed = seed
			plan := &fault.Plan{Seed: seed + 5}
			if faults&1 != 0 {
				plan.LinkDropRate = 4e-3
			}
			if faults&2 != 0 {
				plan.CorruptRate = 2e-3
			}
			if faults&4 != 0 {
				for i := int64(0); i < 3; i++ {
					plan.StashFailures = append(plan.StashFailures, fault.StashFail{
						Switch: int(i) % d.NumSwitches(), Port: int(i) % d.P, At: 300 + 450*i + int64(seed%97)})
				}
			}
			if plan.Active() {
				cfg.Fault = plan
				cfg.Retrans = core.DefaultRetrans()
				cfg.Retrans.SwitchTimeout, cfg.Retrans.EndpointTimeout = 700, 6000
				cfg.RetainPayload = true
			}
			if k := min(4, d.P+d.A-2); parity && k >= 2 {
				cfg.StashParity = k
			}
			n, err := New(cfg)
			if err != nil {
				t.Skipf("config rejected: %v", err)
			}
			return n
		}
		drive := func(n *Network, r runner, chunk int64) *wakeObs {
			o := observe(n, 450, 1000, 1250, 1900)
			_, perCycle := r.(reference)
			rng := sim.NewRNG(seed + 77)
			for i, ep := range n.Endpoints {
				installGen(n, i, genKinds[int(genSel)%len(genKinds)], rng.Derive(uint64(ep.ID)),
					loads[int(loadSel)%len(loads)], perCycle)
			}
			run := func(cycles int64) {
				for cycles > 0 {
					step := cycles
					if chunk > 0 && chunk < step {
						step = chunk
					}
					r.Run(step)
					cycles -= step
				}
			}
			run(1000)
			for _, ep := range n.Endpoints {
				ep.Gen = nil
			}
			run(1200)
			r.Drain(200000)
			return o.finish(n)
		}
		ref := build()
		want := drive(ref, reference{ref}, 0)
		n := build()
		n.SetWorkers(1 + int(workers)%3)
		defer n.Close()
		drive(n, n, int64(chunk)).mustEqual(t, want)
	})
}
