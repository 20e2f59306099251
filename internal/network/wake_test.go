package network

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/endpoint"
	"stashsim/internal/fault"
	"stashsim/internal/metrics"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/topo"
	"stashsim/internal/traffic"
)

// The sleep/wake oracle. The executor steps a component only when its wake
// slot is due; the invariant that makes that safe is "a spurious wake is a
// no-op", so a run in which every component is stepped every cycle (the
// test-only Network.allAwake) is the reference, and a sleeping run must
// agree with it on everything observable: the summary statistics -json
// prints, every endpoint's delivery sequence, and the complete machine
// state — checkpoint bytes — at chosen cycles. Waking early can never
// show; waking late shows as the first checkpoint that differs.

// setAllAwake turns the network into the all-awake reference.
func setAllAwake(n *Network) {
	n.allAwake = true
	n.repartition()
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
// reference run (all awake, one block, or both).
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

// mustMatchAwake drives a sleeping network and an all-awake twin through
// the same script and requires them to be indistinguishable. drive must
// observe() and finish().
func mustMatchAwake(t *testing.T, build func() *Network, drive func(n *Network) *wakeObs) *wakeObs {
	t.Helper()
	ref := build()
	setAllAwake(ref)
	want := drive(ref)
	ref.Close()
	n := build()
	got := drive(n)
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
	got := mustMatchAwake(t, func() *Network { return quietNet(t, nil) }, func(n *Network) *wakeObs {
		o := observe(n, everyCycle(1, 400)...)
		n.Endpoints[0].EnqueueMessage(farEndpoint(n), 3*proto.MaxPacketFlits, proto.ClassDefault, 1)
		n.Run(600)
		return o.finish(n)
	})
	if d := got.deliveries[len(got.deliveries)-1]; len(d) != 3 {
		t.Fatalf("%d packets delivered across the sleeping network, want 3", len(d))
	}
}

// TestWakeOnSynthCredit: every flit endpoint 0 injects is dropped on its
// link (an outage), so its credits come back only as synthesized entries
// on its own synth ring, two link latencies later — when the endpoint has
// long been idle. No retry timers are armed (baseline mode), so the synth
// ring's due time in NextWake is the one thing that steps it then.
func TestWakeOnSynthCredit(t *testing.T) {
	build := func() *Network {
		return quietNet(t, func(cfg *core.Config) {
			cfg.Mode = core.StashOff
			cfg.Fault = &fault.Plan{Seed: 3, Outages: []fault.Outage{{Link: "ep0->sw0.0", Start: 0, End: 10000}}}
		})
	}
	got := mustMatchAwake(t, build, func(n *Network) *wakeObs {
		o := observe(n, everyCycle(1, 120)...)
		n.Endpoints[0].EnqueueMessage(farEndpoint(n), proto.MaxPacketFlits, proto.ClassDefault, 1)
		n.Run(200)
		return o.finish(n)
	})
	if n := len(got.deliveries[len(got.deliveries)-1]); n != 0 {
		t.Fatalf("%d packets delivered through an outage", n)
	}
	var fs struct{ Fault fault.Stats }
	if err := json.Unmarshal(got.summary, &fs); err != nil || fs.Fault.OutagePkts == 0 {
		t.Fatalf("the outage dropped nothing (%v): the test exercised no synthesized credit", err)
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
			build := func() *Network {
				n := quietNet(t, nil)
				n.SetWorkers(workers)
				return n
			}
			for extra := 0; extra < 2*proto.MaxPacketFlits; extra += 1 + extra/8 {
				got := mustMatchAwake(t, build, func(n *Network) *wakeObs {
					o := observe(n)
					n.Endpoints[0].EnqueueMessage(farEndpoint(n), proto.MaxPacketFlits+extra, proto.ClassDefault, 1)
					n.Run(800)
					return o.finish(n)
				})
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
			mustMatchAwake(t, build, func(n *Network) *wakeObs {
				o := observe(n, everyCycle(1, 500)...)
				n.Endpoints[0].EnqueueMessage(farEndpoint(n), proto.MaxPacketFlits, proto.ClassDefault, 1)
				n.Run(700)
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
	got := mustMatchAwake(t, build, func(n *Network) *wakeObs {
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
		n.RunUntil(12000, 1, done)
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
	got := mustMatchAwake(t, func() *Network { return quietNet(t, nil) }, func(n *Network) *wakeObs {
		o := observe(n, everyCycle(90, 200)...)
		n.RunUntil(800, 1, func() bool {
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
	got := mustMatchAwake(t, build, func(n *Network) *wakeObs {
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
		n.Run(700)
		return o.finish(n)
	})
	var s struct{ Counters core.Counters }
	if err := json.Unmarshal(got.summary, &s); err != nil || s.Counters.StashReconstructed == 0 {
		t.Fatalf("no copy was reconstructed (err %v, counters %+v): the test exercised no rebuild", err, s.Counters)
	}
}

// TestWakeOnRunEntry: state assigned to components between runs — the
// only way generators and delivery hooks are ever installed — is seen on
// the first cycle of the next run although the endpoints went to sleep
// during the previous one, because every public run entry starts all
// awake.
func TestWakeOnRunEntry(t *testing.T) {
	got := mustMatchAwake(t, func() *Network { return quietNet(t, nil) }, func(n *Network) *wakeObs {
		n.Run(100) // everything goes to sleep
		o := observe(n, 150, 400)
		rng := sim.NewRNG(11)
		for _, ep := range n.Endpoints[:8] {
			gen := rng.Derive(uint64(ep.ID))
			ep.Gen = traffic.Uniform(gen, len(n.Endpoints), nil, 0.3, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
			ep.GenRNG = gen
		}
		n.Run(300)
		for _, ep := range n.Endpoints {
			ep.Gen = nil
		}
		n.Drain(100000)
		return o.finish(n)
	})
	total := 0
	for _, d := range got.deliveries {
		total += len(d)
	}
	if total == 0 {
		t.Fatal("generators assigned between runs never ran")
	}
}

// TestWakeAcrossRestoreAndRepartition: a checkpoint taken while most of
// the network sleeps restores into a fresh network (whose wake table
// starts all awake, like its arm masks), and a worker-count change in the
// middle of the traffic rebuilds the table and rewires every link's slot
// pointers into it; both continue exactly as the all-awake run does.
func TestWakeAcrossRestoreAndRepartition(t *testing.T) {
	send := func(n *Network) {
		for i := 0; i < 4; i++ {
			n.Endpoints[3*i].EnqueueMessage(farEndpoint(n)-int32(i), 2*proto.MaxPacketFlits, proto.ClassDefault, uint32(i))
		}
	}
	var snap []byte
	mustMatchAwake(t, func() *Network { return quietNet(t, nil) }, func(n *Network) *wakeObs {
		o := observe(n, append([]int64{60}, everyCycle(61, 400)...)...)
		send(n)
		n.Run(47)
		n.SetWorkers(3) // mid-flight: flits on rings, credits outstanding
		n.Run(40)
		n.SetWorkers(12)
		n.Run(40)
		n.SetWorkers(1)
		n.Run(500)
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
	mustMatchAwake(t, straight, func(n *Network) *wakeObs {
		o := observe(n, everyCycle(61, 400)...)
		n.Run(627 - int64(n.Now))
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

// driveWakeGrid is the grid's script: a loaded phase, a sparse phase in
// which one endpoint in nine still generates, a silent phase with a few
// scripted messages, and a drain — with the machine state captured in the
// middle of each of the first three.
func driveWakeGrid(n *Network, kind string) *wakeObs {
	o := observe(n, 700, 2000, 2900)
	rng := sim.NewRNG(n.Cfg.Seed + 77)
	load := 0.25
	if kind == "ecn" {
		load = 0.4
	}
	for i, ep := range n.Endpoints {
		gen := rng.Derive(uint64(ep.ID))
		ep.GenRNG = gen
		if kind == "ecn" && i%11 == 3 {
			ep.Gen = traffic.Hotspot(int32(i%2), proto.MaxPacketFlits, proto.ClassAggressor, 0)
			continue
		}
		ep.Gen = traffic.Uniform(gen, len(n.Endpoints), nil, load, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	n.Warmup(400)
	n.Run(800)
	for i, ep := range n.Endpoints {
		if i%9 != 0 || kind == "ecn" && i%11 == 3 {
			ep.Gen = nil
		}
	}
	n.Run(1300)
	for _, ep := range n.Endpoints {
		ep.Gen = nil
	}
	n.RunUntil(1000, 100, func() bool {
		k := int(n.Now/100) % len(n.Endpoints)
		n.Endpoints[k].EnqueueMessage(int32((k+len(n.Endpoints)/2)%len(n.Endpoints)), 2*proto.MaxPacketFlits, proto.ClassDefault, uint32(k))
		return false
	})
	n.Drain(400000)
	return o.finish(n)
}

// TestSpuriousWakeIsNoop is the invariant over the configurations the
// goldens pin: presets x {e2e, congestion + ECN, faults + parity k=4} x
// workers {1, 2, 12} x epochs {free-running, capped to one cycle}. Each
// point's sleeping run must be indistinguishable from the regime's
// all-awake reference (one partition, uncapped: results do not depend on
// either, which TestEpochMatchesSerial pins separately and this grid
// re-checks for free).
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
				setAllAwake(ref)
				want := driveWakeGrid(ref, kind.name)
				for _, workers := range []int{1, 2, 12} {
					for _, perCycle := range []bool{false, true} {
						if testing.Short() && perCycle && workers != 2 {
							continue
						}
						n := build()
						n.SetWorkers(workers)
						if perCycle {
							setEpochCap(n, 1)
						}
						got := driveWakeGrid(n, kind.name)
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
// fault plan x parity x worker count x the way the run is chunked into
// public Run calls (each of which starts all awake and ends an epoch, so
// chunking moves where components fall asleep and where blocks take
// turns). The reference is both references at once: every component in
// one block, stepped every cycle.
func FuzzWakeEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(1), uint8(0), false, uint16(0), uint8(0))
	f.Add(uint64(2), uint8(1), uint8(0), uint8(7), true, uint16(37), uint8(1))
	f.Add(uint64(3), uint8(2), uint8(2), uint8(3), true, uint16(1), uint8(2))
	f.Add(uint64(4), uint8(3), uint8(1), uint8(4), false, uint16(500), uint8(0))
	f.Add(uint64(5), uint8(2), uint8(0), uint8(5), true, uint16(64), uint8(1))
	topos := []topo.Dragonfly{{P: 1, A: 2, H: 1}, {P: 2, A: 2, H: 1}, {P: 2, A: 4, H: 2}, {P: 3, A: 3, H: 1}}
	loads := []float64{0.03, 0.15, 0.45}
	f.Fuzz(func(t *testing.T, seed uint64, topoSel, loadSel, faults uint8, parity bool, chunk uint16, workers uint8) {
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
		drive := func(n *Network, chunk int64) *wakeObs {
			o := observe(n, 450, 1250, 1900)
			rng := sim.NewRNG(seed + 77)
			for _, ep := range n.Endpoints {
				gen := rng.Derive(uint64(ep.ID))
				ep.Gen = traffic.Uniform(gen, len(n.Endpoints), nil, loads[int(loadSel)%len(loads)],
					n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
				ep.GenRNG = gen
			}
			run := func(cycles int64) {
				for cycles > 0 {
					step := cycles
					if chunk > 0 && chunk < step {
						step = chunk
					}
					n.Run(step)
					cycles -= step
				}
			}
			run(1000)
			for _, ep := range n.Endpoints {
				ep.Gen = nil
			}
			run(1200)
			n.Drain(200000)
			return o.finish(n)
		}
		ref := build()
		ref.oneBlock = true
		setAllAwake(ref)
		want := drive(ref, 0)
		n := build()
		n.SetWorkers(1 + int(workers)%3)
		defer n.Close()
		drive(n, int64(chunk)).mustEqual(t, want)
	})
}
