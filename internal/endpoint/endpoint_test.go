package endpoint

import (
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
)

// harness wires a lone endpoint to loopback links so its injection and
// delivery paths can be exercised without a switch.
type harness struct {
	ep     *Endpoint
	toSw   *core.Link
	fromSw *core.Link
	cfg    *core.Config
}

func newHarness(t *testing.T, mutate func(*core.Config)) *harness {
	t.Helper()
	cfg := core.TinyConfig()
	if mutate != nil {
		mutate(cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	ep := New(3, cfg, sim.NewRNG(5))
	ep.Collector = NewCollector()
	toSw := core.NewLink(1)
	fromSw := core.NewLink(1)
	ep.Attach(toSw, fromSw, cfg.InputBufFlits, nil)
	return &harness{ep: ep, toSw: toSw, fromSw: fromSw, cfg: cfg}
}

// drain pulls all flits the endpoint injected up to and including `now`,
// returning credits the way the switch input buffer would.
func (h *harness) drain(now int64) []proto.Flit {
	var out []proto.Flit
	for {
		f, ok := h.toSw.RecvFlit(now)
		if !ok {
			return out
		}
		h.toSw.SendCredit(now, proto.Credit{VC: f.VC, Shared: f.Flags&proto.FlagShared != 0})
		out = append(out, f)
	}
}

func TestInjectionSerialization(t *testing.T) {
	h := newHarness(t, nil)
	h.ep.EnqueueMessage(0, 100, proto.ClassDefault, 1)
	for now := int64(0); now < 200; now++ {
		h.ep.Step(now)
	}
	flits := h.drain(300)
	if len(flits) != 100 {
		t.Fatalf("injected %d flits, want 100", len(flits))
	}
	// 100 flits at 10/13 rate need at least 130 cycles.
	// All flits were drained at t<=200, consistent with the rate; check
	// packetization: 24+24+24+24+4.
	sizes := map[uint64]int{}
	for _, f := range flits {
		sizes[f.PktID]++
	}
	if len(sizes) != 5 {
		t.Fatalf("message split into %d packets, want 5", len(sizes))
	}
	for id, n := range sizes {
		if n != 24 && n != 4 {
			t.Fatalf("packet %x has %d flits", id, n)
		}
	}
}

func TestInjectionRateLimit(t *testing.T) {
	h := newHarness(t, nil)
	h.ep.EnqueueMessage(0, 1000, proto.ClassDefault, 1)
	cycles := int64(130)
	for now := int64(0); now < cycles; now++ {
		h.ep.Step(now)
	}
	got := len(h.drain(cycles + 10))
	// 130 cycles at 10/13 = at most 100 flits (plus 1 for accumulator
	// boundary effects).
	if got > 101 {
		t.Fatalf("injected %d flits in %d cycles (rate violation)", got, cycles)
	}
	if got < 98 {
		t.Fatalf("injected only %d flits in %d cycles", got, cycles)
	}
}

func TestWormholeNoInterleaving(t *testing.T) {
	h := newHarness(t, nil)
	h.ep.EnqueueMessage(0, 48, proto.ClassDefault, 1)
	h.ep.EnqueueMessage(1, 48, proto.ClassDefault, 2)
	for now := int64(0); now < 300; now++ {
		h.ep.Step(now)
	}
	flits := h.drain(400)
	// Packets must be contiguous: whenever a head appears, the next
	// flits up to its tail must share its PktID.
	for i := 0; i < len(flits); {
		f := flits[i]
		if !f.Head() {
			t.Fatalf("flit %d is not a head", i)
		}
		for k := 0; k < int(f.Size); k++ {
			g := flits[i+k]
			if g.PktID != f.PktID || int(g.Seq) != k {
				t.Fatalf("packet %x interleaved at flit %d", f.PktID, i+k)
			}
		}
		i += int(f.Size)
	}
}

func TestRoundRobinAcrossDestinations(t *testing.T) {
	h := newHarness(t, nil)
	// Two destinations with multi-packet messages: packets must
	// alternate (per-packet round robin).
	h.ep.EnqueueMessage(0, 96, proto.ClassDefault, 1)
	h.ep.EnqueueMessage(1, 96, proto.ClassDefault, 2)
	var flits []proto.Flit
	for now := int64(0); now < 400; now++ {
		h.ep.Step(now)
		flits = append(flits, h.drain(now)...)
	}
	var order []int32
	for _, f := range flits {
		if f.Head() {
			order = append(order, f.Dst)
		}
	}
	if len(order) != 8 {
		t.Fatalf("%d packets", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("packets not alternating: %v", order)
		}
	}
}

func TestAckGenerationAndPriority(t *testing.T) {
	h := newHarness(t, nil)
	// Keep the endpoint busy sending a long message.
	h.ep.EnqueueMessage(0, 240, proto.ClassDefault, 1)
	// Deliver a data packet to it; the ACK must preempt the data stream
	// at the next packet boundary.
	data := proto.Flit{
		Src: 9, Dst: 3, PktID: proto.MakePktID(9, 1), Size: 1,
		Kind: proto.Data, Flags: proto.FlagHead | proto.FlagTail,
	}
	h.fromSw.SendFlit(0, data)
	var ackAt, boundary int = -1, -1
	count := 0
	for now := int64(0); now < 500; now++ {
		h.ep.Step(now)
		for _, f := range h.drain(now) {
			if f.Kind == proto.ACK {
				if f.Dst != 9 || f.PktID != data.PktID {
					t.Fatalf("bad ACK %+v", f)
				}
				ackAt = count
			} else if f.Tail() && boundary == -1 && ackAt == -1 {
				boundary = count
			}
			count++
		}
	}
	if ackAt == -1 {
		t.Fatal("no ACK generated")
	}
	if boundary != -1 && ackAt > boundary+25 {
		t.Fatalf("ACK delayed past packet boundary: ack at flit %d, boundary %d", ackAt, boundary)
	}
}

func TestNoAckWhenDisabled(t *testing.T) {
	h := newHarness(t, func(c *core.Config) { c.AcksEnabled = false })
	data := proto.Flit{
		Src: 9, Dst: 3, PktID: proto.MakePktID(9, 1), Size: 1,
		Kind: proto.Data, Flags: proto.FlagHead | proto.FlagTail,
	}
	h.fromSw.SendFlit(0, data)
	for now := int64(0); now < 50; now++ {
		h.ep.Step(now)
	}
	for _, f := range h.drain(100) {
		if f.Kind == proto.ACK {
			t.Fatal("ACK generated with acks disabled")
		}
	}
}

func TestECNWindowGatesInjection(t *testing.T) {
	h := newHarness(t, func(c *core.Config) {
		c.ECN = core.DefaultECN()
		c.ECN.WindowMax = 48 // two packets
	})
	h.ep.EnqueueMessage(0, 240, proto.ClassDefault, 1)
	for now := int64(0); now < 1000; now++ {
		h.ep.Step(now)
	}
	flits := h.drain(2000)
	if len(flits) != 48 {
		t.Fatalf("window allowed %d flits, want 48", len(flits))
	}
	// An ACK for the first packet opens the window for one more packet.
	ack := proto.Flit{
		Src: 0, Dst: 3, PktID: flits[0].PktID, MsgID: 24, Size: 1,
		Kind: proto.ACK, Flags: proto.FlagHead | proto.FlagTail,
	}
	h.fromSw.SendFlit(1000, ack)
	for now := int64(1001); now < 2000; now++ {
		h.ep.Step(now)
	}
	if got := len(h.drain(3000)); got != 24 {
		t.Fatalf("ACK released %d flits, want 24", got)
	}
}

func TestECNMarkShrinksWindow(t *testing.T) {
	h := newHarness(t, func(c *core.Config) { c.ECN = core.DefaultECN() })
	// Prime the window by sending one packet.
	h.ep.EnqueueMessage(0, 24, proto.ClassDefault, 1)
	for now := int64(0); now < 100; now++ {
		h.ep.Step(now)
	}
	pkt := h.drain(200)[0].PktID
	before := h.ep.WindowOf(0)
	ack := proto.Flit{
		Src: 0, Dst: 3, PktID: pkt, MsgID: 24, Size: 1,
		Kind: proto.ACK, Flags: proto.FlagHead | proto.FlagTail | proto.FlagECN,
	}
	h.fromSw.SendFlit(100, ack)
	h.ep.Step(101)
	h.ep.Step(102)
	after := h.ep.WindowOf(0)
	want := before * h.cfg.ECN.DecreaseNum / h.cfg.ECN.DecreaseDen
	if after != want {
		t.Fatalf("window %d -> %d, want %d", before, after, want)
	}
}

func TestECNWindowRecovery(t *testing.T) {
	h := newHarness(t, func(c *core.Config) { c.ECN = core.DefaultECN() })
	ep := h.ep
	w := ep.window(0)
	w.size = 100
	w.lastGrow = 0
	ep.growWindow(&w, 300) // 10 recovery periods
	if w.size != 110 {
		t.Fatalf("window recovered to %d, want 110", w.size)
	}
	ep.growWindow(&w, 1<<40)
	if w.size != h.cfg.ECN.WindowMax {
		t.Fatalf("window recovery overshot: %d", w.size)
	}
}

func TestWindowFloor(t *testing.T) {
	h := newHarness(t, func(c *core.Config) { c.ECN = core.DefaultECN() })
	for i := 0; i < 100; i++ {
		h.ep.onAck(int64(i), &proto.Flit{
			Src: 0, MsgID: 0, Kind: proto.ACK,
			Flags: proto.FlagHead | proto.FlagTail | proto.FlagECN,
		})
	}
	if w := h.ep.WindowOf(0); w != h.cfg.ECN.WindowFloor {
		t.Fatalf("window %d, want floor %d", w, h.cfg.ECN.WindowFloor)
	}
}

func TestErrorInjectionNacks(t *testing.T) {
	h := newHarness(t, func(c *core.Config) {
		c.ErrorRate = 1.0
		c.RetainPayload = true
	})
	data := proto.Flit{
		Src: 9, Dst: 3, PktID: proto.MakePktID(9, 1), Size: 1,
		Kind: proto.Data, Flags: proto.FlagHead | proto.FlagTail,
	}
	h.fromSw.SendFlit(0, data)
	for now := int64(0); now < 50; now++ {
		h.ep.Step(now)
	}
	flits := h.drain(100)
	if len(flits) != 1 || flits[0].Kind != proto.ACK || flits[0].Flags&proto.FlagNack == 0 {
		t.Fatalf("expected a NACK, got %+v", flits)
	}
	if h.ep.Collector.DeliveredPkts[proto.ClassDefault] != 0 {
		t.Fatal("corrupted packet was delivered")
	}
	if h.ep.Collector.Errors != 1 {
		t.Fatal("error not counted")
	}
}

func TestLatencyRecorded(t *testing.T) {
	h := newHarness(t, nil)
	data := proto.Flit{
		Src: 9, Dst: 3, PktID: proto.MakePktID(9, 1), Size: 1, Birth: 100,
		Kind: proto.Data, Flags: proto.FlagHead | proto.FlagTail, Class: proto.ClassVictim,
	}
	h.fromSw.SendFlit(499, data)
	h.ep.Step(500)
	acc := h.ep.Collector.LatAcc[proto.ClassVictim]
	if acc.N != 1 || acc.Min != 400 {
		t.Fatalf("latency acc %+v, want one sample of 400", acc)
	}
}

func TestCollectorGating(t *testing.T) {
	c := NewCollector().WithHist(proto.ClassDefault)
	c.WithSeries(proto.ClassDefault, 100)
	c.Enabled = false
	c.Packet(10, proto.ClassDefault, 5, 24)
	c.Offered(proto.ClassDefault, 24)
	c.Ack()
	c.Error()
	c.WindowShrink()
	if c.TotalDeliveredFlits() != 0 || c.TotalOfferedFlits() != 0 {
		t.Fatal("disabled collector recorded flits")
	}
	if c.LatAcc[proto.ClassDefault].N != 0 {
		t.Fatal("disabled collector recorded latency")
	}
	if c.LatHist[proto.ClassDefault].N() != 0 {
		t.Fatal("disabled collector recorded histogram sample")
	}
	if ts, _ := c.Series[proto.ClassDefault].Means(); len(ts) != 0 {
		t.Fatal("disabled collector recorded time-series sample")
	}
	if c.Acks != 0 || c.Errors != 0 || c.WindowShrinks != 0 {
		t.Fatalf("disabled collector recorded events: acks=%d errors=%d shrinks=%d",
			c.Acks, c.Errors, c.WindowShrinks)
	}
	c.Enabled = true
	c.Packet(10, proto.ClassDefault, 5, 24)
	c.Ack()
	c.Error()
	c.WindowShrink()
	if c.TotalDeliveredFlits() != 24 {
		t.Fatal("enabled collector did not record")
	}
	if c.LatHist[proto.ClassDefault].N() != 1 {
		t.Fatal("enabled collector did not record histogram sample")
	}
	if c.Acks != 1 || c.Errors != 1 || c.WindowShrinks != 1 {
		t.Fatal("enabled collector did not record events")
	}
	c.Reset()
	if c.TotalDeliveredFlits() != 0 || c.Acks != 0 {
		t.Fatal("reset did not clear")
	}
	if c.LatHist[proto.ClassDefault] == nil || c.Series[proto.ClassDefault] == nil {
		t.Fatal("reset dropped optional sink configuration")
	}
}

// TestCollectorWarmupGating drives the gate through the endpoint itself:
// a delivery while Enabled=false (warmup) must leave no trace in any sink.
func TestCollectorWarmupGating(t *testing.T) {
	h := newHarness(t, nil)
	h.ep.Collector.WithHist(proto.ClassVictim)
	h.ep.Collector.Enabled = false
	data := proto.Flit{
		Src: 9, Dst: 3, PktID: proto.MakePktID(9, 7), Size: 1, Birth: 100,
		Kind: proto.Data, Flags: proto.FlagHead | proto.FlagTail, Class: proto.ClassVictim,
	}
	h.fromSw.SendFlit(499, data)
	h.ep.Step(500)
	c := h.ep.Collector
	if c.LatAcc[proto.ClassVictim].N != 0 || c.LatHist[proto.ClassVictim].N() != 0 ||
		c.DeliveredPkts[proto.ClassVictim] != 0 {
		t.Fatal("warmup delivery was recorded")
	}
	if h.ep.RecvFlits != 1 {
		t.Fatalf("RecvFlits = %d, want 1 (watchdog progress signal must not be gated)", h.ep.RecvFlits)
	}
}

// TestSelfMessagePanics: an endpoint panics on misuse — a message to
// itself, and an Attach that would move queues holding something into a
// group's pools. A bare endpoint queues into pools of its own, before it is
// attached too, and an Attach without pools keeps them.
func TestSelfMessagePanics(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		misuse     func(t *testing.T, h *harness)
	}{
		{"message to self", "endpoint: message to self", func(_ *testing.T, h *harness) {
			h.ep.EnqueueMessage(3, 10, proto.ClassDefault, 0)
		}},
		{"attach with something queued", "endpoint: attaching an endpoint with something queued", func(t *testing.T, h *harness) {
			ep := New(4, h.cfg, sim.NewRNG(5))
			ep.EnqueueMessage(0, 30, proto.ClassDefault, 0)
			ep.Attach(core.NewLink(1), core.NewLink(1), h.cfg.InputBufFlits, nil)
			if got := ep.Pools().Sends().InUse(); got != 2 || ep.QueuedFlits() != 30 {
				t.Fatalf("a bare endpoint holds %d packets, %d flits after queueing 30 flits; want 2, 30", got, ep.QueuedFlits())
			}
			ep.Attach(core.NewLink(1), core.NewLink(1), h.cfg.InputBufFlits, new(core.Pools))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, nil)
			defer func() {
				if r := recover(); r != tc.want {
					t.Fatalf("panic %v, want %q", r, tc.want)
				}
			}()
			tc.misuse(t, h)
		})
	}
}

// TestWarmStepsAllocateNothing: once warm, an endpoint's steps allocate
// nothing as destinations come and go. Each round queues a one-packet
// message for 16 of 48 destinations in turn and steps until they are
// sent, every packet ACKed a cycle after it leaves and every fifth ACK
// ECN-marked: send queues are listed, drain and are dropped, their
// packets' slots reused from the pool, and windows are made, shrunk and
// dropped.
func TestWarmStepsAllocateNothing(t *testing.T) {
	h := newHarness(t, func(c *core.Config) { c.ECN = core.DefaultECN() })
	var now int64
	round := 0
	acks := 0
	run := func() {
		for i := 0; i < 16; i++ {
			h.ep.EnqueueMessage(int32(10+(round*16+i)%48), proto.MaxPacketFlits, proto.ClassDefault, uint32(round))
		}
		round++
		for end := now + 600; now < end; now++ {
			h.ep.Step(now)
			for {
				f, ok := h.toSw.RecvFlit(now)
				if !ok {
					break
				}
				h.toSw.SendCredit(now, proto.Credit{VC: f.VC, Shared: f.Flags&proto.FlagShared != 0})
				if !f.Tail() {
					continue
				}
				flags := proto.FlagHead | proto.FlagTail
				if acks++; acks%5 == 0 {
					flags |= proto.FlagECN
				}
				h.fromSw.SendFlit(now, proto.Flit{Src: f.Dst, Dst: f.Src, PktID: f.PktID,
					MsgID: uint32(f.Size), Size: 1, Kind: proto.ACK, Flags: flags})
			}
		}
	}
	for i := 0; i < 12; i++ {
		run()
	}
	if q, _, w, _ := h.ep.HeldState(); q != 0 || w == 0 {
		t.Fatalf("after a round: %d send queues and %d windows held; want none and some", q, w)
	}
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("a warm round of endpoint steps makes %.1f allocations, want 0", n)
	}
}
