package network

import (
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
)

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
// rings (the per-cycle digests differ) until something else comes by.
func TestWakeOnFlitAndCredit(t *testing.T) {
	build := func() *Network { return quietNet(t, nil) }
	at := everyCycle(1, 400)
	script := func(d *drive) {
		d.n.Endpoints[0].EnqueueMessage(farEndpoint(d.n), 3*proto.MaxPacketFlits, proto.ClassDefault, 1)
		d.Run(600)
	}
	want := play(t, build, row{ref: true}, at, script)
	got := play(t, build, row{}, at, script)
	got.mustEqual(t, want)
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
			at := everyCycle(1, 120)
			script := func(d *drive) {
				d.n.Endpoints[0].EnqueueMessage(farEndpoint(d.n), proto.MaxPacketFlits, proto.ClassDefault, 1)
				d.Run(200)
				after = avail(d.n)
			}
			want := play(t, build, row{ref: true}, at, script)
			got := play(t, build, row{}, at, script)
			got.mustEqual(t, want)
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
			n.Observe(every{k: 1, at: func(now int64) {
				for i, c := range links {
					dropped[i] = append(dropped[i], c.link.Fault.FlitsDropped())
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
			}})
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
// epochs), 12 by switch (local links too, 13-cycle epochs). No digest
// trail here — it would cut every epoch to one cycle — and a sweep of
// message lengths instead: a returned credit strands on a sleeping
// producer only when the drain that delivers it comes after the producer's
// last retention release, which depends on where in the epoch the tail
// flit left.
func TestWakeOnEpochDrain(t *testing.T) {
	for _, workers := range []int{2, 12} {
		t.Run("w"+strconv.Itoa(workers), func(t *testing.T) {
			build := func() *Network { return quietNet(t, nil) }
			for extra := 0; extra < 2*proto.MaxPacketFlits; extra += 1 + extra/8 {
				script := func(d *drive) {
					d.n.Endpoints[0].EnqueueMessage(farEndpoint(d.n), proto.MaxPacketFlits+extra, proto.ClassDefault, 1)
					d.Run(800)
				}
				// The reference on one worker: it stages no link, and a
				// barrier round per cycle on twelve would show nothing more.
				want := play(t, build, row{ref: true}, nil, script)
				got := play(t, build, row{workers: workers}, nil, script)
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
			at := everyCycle(1, 500)
			script := func(d *drive) {
				d.n.Endpoints[0].EnqueueMessage(farEndpoint(d.n), proto.MaxPacketFlits, proto.ClassDefault, 1)
				d.Run(700)
			}
			want := play(t, build, row{ref: true}, at, script)
			play(t, build, row{}, at, script).mustEqual(t, want)
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
	at := append(everyCycle(1, 700), everyCycle(2000, 2400)...)
	at = append(at, 3000, 4000, 5000, 6000, 7000, 9000)
	script := func(d *drive) {
		n := d.n
		done := func() bool {
			if n.Now == 2000 {
				n.Endpoints[0].EnqueueMessage(farEndpoint(n), proto.MaxPacketFlits, proto.ClassDefault, 2)
			}
			return false
		}
		n.Endpoints[0].EnqueueMessage(farEndpoint(n), proto.MaxPacketFlits, proto.ClassDefault, 1)
		d.RunUntil(12000, 1, done)
	}
	want := play(t, build, row{ref: true}, at, script)
	got := play(t, build, row{}, at, script)
	got.mustEqual(t, want)
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
	build := func() *Network { return quietNet(t, nil) }
	at := everyCycle(90, 200)
	script := func(d *drive) {
		n := d.n
		d.RunUntil(800, 1, func() bool {
			if n.Now == 100 {
				n.Endpoints[5].EnqueueMessage(farEndpoint(n), proto.MaxPacketFlits, proto.ClassDefault, 7)
			}
			return false
		})
	}
	want := play(t, build, row{ref: true}, at, script)
	got := play(t, build, row{}, at, script)
	got.mustEqual(t, want)
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
	at := everyCycle(100, 400)
	script := func(dr *drive) {
		n, d := dr.n, dr.n.Cfg.Topo
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
		for i := 0; i < d.P; i++ {
			n.Endpoints[i].EnqueueMessage(dst, proto.MaxPacketFlits, proto.ClassDefault, uint32(i))
		}
		dr.Run(700)
	}
	want := play(t, build, row{ref: true}, at, script)
	got := play(t, build, row{}, at, script)
	got.mustEqual(t, want)
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
	build := func() *Network { return quietNet(t, nil) }
	at := append([]int64{60}, everyCycle(61, 400)...)
	script := func(d *drive) {
		d.o.keep = true
		send(d.n)
		d.Run(47)
		d.n.SetWorkers(3) // mid-flight: flits on rings, credits outstanding
		d.Run(40)
		d.n.SetWorkers(d.n.Cfg.Topo.Groups()) // a worker per group, the most there are
		d.Run(40)
		d.n.SetWorkers(1)
		d.Run(500)
	}
	want := play(t, build, row{ref: true}, at, script)
	got := play(t, build, row{}, at, script)
	got.mustEqual(t, want)

	straight := func() *Network {
		n := quietNet(t, nil)
		if err := n.Restore(got.first); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		return n
	}
	at = everyCycle(61, 400)
	resume := func(d *drive) { d.Run(627 - int64(d.n.Now)) }
	want = play(t, straight, row{ref: true}, at, resume)
	play(t, straight, row{}, at, resume).mustEqual(t, want)
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
