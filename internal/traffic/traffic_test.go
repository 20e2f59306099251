package traffic

import (
	"bytes"
	"fmt"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/endpoint"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/snapshot"
)

func testEndpoint(t *testing.T) *endpoint.Endpoint {
	t.Helper()
	cfg := core.TinyConfig()
	ep := endpoint.New(0, cfg, sim.NewRNG(1))
	ep.Collector = endpoint.NewCollector()
	ep.Attach(core.NewLink(1), core.NewLink(1), cfg.InputBufFlits, nil)
	return ep
}

func TestUniformRate(t *testing.T) {
	ep := testEndpoint(t)
	rng := sim.NewRNG(2)
	load, rate := 0.5, 10.0/13.0
	gen := Uniform(rng, 72, nil, load, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
	const cycles = 200000
	for now := sim.Tick(0); now < cycles; now++ {
		gen(now, ep)
	}
	offered := float64(ep.Collector.TotalOfferedFlits())
	want := load * rate * cycles
	if offered < want*0.95 || offered > want*1.05 {
		t.Fatalf("offered %.0f flits, want ~%.0f", offered, want)
	}
}

func TestUniformStartDelay(t *testing.T) {
	ep := testEndpoint(t)
	rng := sim.NewRNG(3)
	gen := Uniform(rng, 72, nil, 1.0, 1.0, 24, proto.ClassDefault, 1000)
	for now := sim.Tick(0); now < 1000; now++ {
		gen(now, ep)
	}
	if ep.Collector.TotalOfferedFlits() != 0 {
		t.Fatal("generated before start time")
	}
	for now := sim.Tick(1000); now < 2000; now++ {
		gen(now, ep)
	}
	if ep.Collector.TotalOfferedFlits() == 0 {
		t.Fatal("nothing generated after start time")
	}
}

func TestUniformDestinationsValid(t *testing.T) {
	ep := testEndpoint(t)
	rng := sim.NewRNG(4)
	dests := []int32{5, 9, 13}
	// Full-rate so many messages get generated.
	gen := Uniform(rng, 72, dests, 1.0, 1.0, 24, proto.ClassDefault, 0)
	for now := sim.Tick(0); now < 5000; now++ {
		gen(now, ep)
	}
	// Destinations are internal to the endpoint's queues; instead verify
	// self-exclusion indirectly: endpoint 5 restricted to {5,9,13} must
	// never pick itself (EnqueueMessage would panic).
	cfg := core.TinyConfig()
	ep5 := endpoint.New(5, cfg, sim.NewRNG(8))
	ep5.Collector = endpoint.NewCollector()
	ep5.Attach(core.NewLink(1), core.NewLink(1), cfg.InputBufFlits, nil)
	gen5 := Uniform(sim.NewRNG(6), 72, dests, 1.0, 1.0, 24, proto.ClassDefault, 0)
	for now := sim.Tick(0); now < 5000; now++ {
		gen5(now, ep5) // panics on self-message if exclusion fails
	}
}

func TestSaturatingKeepsBacklogShallow(t *testing.T) {
	ep := testEndpoint(t)
	rng := sim.NewRNG(5)
	gen := Saturating(rng, 72, nil, 48, proto.ClassAggressor, 0, 0)
	gen(0, ep)
	if q := ep.QueuedFlits(); q < 48 || q > 144 {
		t.Fatalf("backlog %d outside [48,144]", q)
	}
	// Without consumption, repeated calls do not grow the backlog.
	before := ep.QueuedFlits()
	for now := sim.Tick(1); now < 100; now++ {
		gen(now, ep)
	}
	if ep.QueuedFlits() != before {
		t.Fatal("saturating generator grew an unconsumed backlog")
	}
}

func TestSaturatingStopTime(t *testing.T) {
	ep := testEndpoint(t)
	rng := sim.NewRNG(6)
	gen := Saturating(rng, 72, nil, 24, proto.ClassAggressor, 0, 50)
	gen(49, ep)
	q := ep.QueuedFlits()
	gen(50, ep)
	gen(51, ep)
	if ep.QueuedFlits() != q {
		t.Fatal("generated after stop time")
	}
}

func TestHotspotFixedDestination(t *testing.T) {
	ep := testEndpoint(t)
	gen := Hotspot(9, 24, proto.ClassAggressor, 0)
	for now := sim.Tick(0); now < 10; now++ {
		gen(now, ep)
	}
	if ep.QueuedFlits() == 0 {
		t.Fatal("hotspot generated nothing")
	}
	// All offered load is aggressor class.
	if ep.Collector.OfferedFlits[proto.ClassAggressor] == 0 ||
		ep.Collector.OfferedFlits[proto.ClassDefault] != 0 {
		t.Fatal("hotspot used wrong class")
	}
}

// refBernoulli is the per-cycle form the lookahead generators are held to:
// the draw loop Uniform (dests, start) and Permutation (partner >= 0) ran
// before they looked ahead — one Bernoulli draw every cycle from start on,
// the destination's draws after each hit — answering now+1 always.
func refBernoulli(rng *sim.RNG, numEndpoints int, dests []int32, partner int32, load, rate float64, msgFlits int, start sim.Tick) Gen {
	p := load * rate / float64(msgFlits)
	return func(now sim.Tick, e *endpoint.Endpoint) sim.Tick {
		if now < start || !rng.Bernoulli(p) {
			return now + 1
		}
		dst := partner
		if dst < 0 {
			dst = randomDest(rng, numEndpoints, dests, e.ID)
		}
		e.EnqueueMessage(dst, msgFlits, proto.ClassDefault, 0)
		return now + 1
	}
}

// genCase is one generator under test: Uniform, or Permutation when
// partner >= 0, on endpoint id of a 72-endpoint network.
type genCase struct {
	seed    uint64
	load    float64
	start   sim.Tick
	dests   []int32
	partner int32
	id      int32
}

func (gc genCase) String() string {
	return fmt.Sprintf("seed=%d load=%g start=%d dests=%v partner=%d ep=%d", gc.seed, gc.load, gc.start, gc.dests, gc.partner, gc.id)
}

const genRate = 10.0 / 13

func (gc genCase) lookahead(rng *sim.RNG) Gen {
	if gc.partner >= 0 {
		return Permutation(rng, gc.partner, gc.load, genRate, proto.MaxPacketFlits, proto.ClassDefault)
	}
	return Uniform(rng, 72, gc.dests, gc.load, genRate, proto.MaxPacketFlits, proto.ClassDefault, gc.start)
}

func (gc genCase) perCycle(rng *sim.RNG) Gen {
	start := gc.start
	if gc.partner >= 0 {
		start = 0
	}
	return refBernoulli(rng, 72, gc.dests, gc.partner, gc.load, genRate, proto.MaxPacketFlits, start)
}

// genRig is one endpoint with a sink for its injection link that returns
// every credit on arrival, as a switch input port would, so the endpoint
// drains its backlog and goes back to sleep between arrivals. The sink
// logs each packet's destination and the cycle it was injected.
type genRig struct {
	ep   *endpoint.Endpoint
	toSw *core.Link
	rng  *sim.RNG
	wake sim.Tick
	ann  sim.Tick // the cycle the generator last announced
	sent []string
}

func newGenRig(gc genCase, gen func(*sim.RNG) Gen) *genRig {
	cfg := core.TinyConfig()
	r := &genRig{rng: sim.NewRNG(gc.seed), toSw: core.NewLink(1)}
	r.ep = endpoint.New(gc.id, cfg, sim.NewRNG(1))
	r.ep.Collector = endpoint.NewCollector()
	r.ep.Attach(r.toSw, core.NewLink(1), cfg.InputBufFlits, nil)
	r.ep.SetWakeSlot(&r.wake)
	g := gen(r.rng)
	r.ep.Gen = func(now sim.Tick, e *endpoint.Endpoint) sim.Tick {
		r.ann = g(now, e)
		return r.ann
	}
	r.ep.GenRNG = r.rng
	return r
}

func (r *genRig) sink(now sim.Tick) {
	for {
		f, ok := r.toSw.RecvFlit(now)
		if !ok {
			return
		}
		if f.Head() {
			r.sent = append(r.sent, fmt.Sprintf("%d->%d", f.Birth, f.Dst))
		}
		r.toSw.SendCredit(now, proto.Credit{VC: f.VC, Shared: f.Flags&proto.FlagShared != 0})
	}
}

// stream is GenRNG as the per-cycle form would have left it at cycle now:
// the live stream, less one draw for each cycle from now up to the one the
// generator announced (the barrier rule, applied by hand).
func (r *genRig) stream(now sim.Tick) uint64 {
	s := *r.rng
	s.Skip(-max(r.ann-now, 0))
	return s.State()
}

// checkpoint is the endpoint's checkpoint bytes at cycle now, where the
// endpoint applies the barrier rule to GenRNG itself.
func (r *genRig) checkpoint(now sim.Tick) []byte {
	return snapshot.Encode(func(c *snapshot.Codec) { r.ep.State(c, now) })
}

// checkLookahead runs gc's lookahead generator beside its per-cycle form
// for `cycles` cycles and requires the two endpoints to be
// indistinguishable: at every cycle boundary the same backlog, the same
// flits sent and the same stream position under the barrier rule, and in
// the end the same packets to the same destinations injected on the same
// cycles; the endpoint's own checkpoint bytes, in which it applies the
// barrier rule, are compared every 97 cycles, at the removal and at the
// end. caller is how the lookahead side is reached: "sleeping" steps the
// endpoint only when its wake slot is due, as the executor does; "awake"
// steps it every cycle (every call before the announced cycle is a
// spurious wake); "direct" calls the generator itself every cycle, as
// bench/kernels.go does, with no endpoint step. With clear > 0 both
// generators are removed at that cycle, which — a run entry — wakes the
// endpoint, and the lookahead side's draws ahead must come back to the
// stream.
func checkLookahead(t testing.TB, gc genCase, caller string, cycles, clear sim.Tick) {
	t.Helper()
	ref, got := newGenRig(gc, gc.perCycle), newGenRig(gc, gc.lookahead)
	direct := caller == "direct"
	refGen, gotGen := ref.ep.Gen, got.ep.Gen
	if direct {
		// The endpoint neither calls these generators nor knows what they
		// announce, so it must not write their stream either.
		ref.ep.Gen, got.ep.Gen = nil, nil
		ref.ep.GenRNG, got.ep.GenRNG = nil, nil
	}
	fail := func(now sim.Tick, what string) {
		t.Helper()
		t.Fatalf("%v, %s caller: %s differs from the per-cycle generator's at cycle %d (%d packets injected)",
			gc, caller, what, now, len(ref.sent))
	}
	for now := sim.Tick(0); now < cycles; now++ {
		removed := now == clear && !direct
		if removed {
			ref.ep.Gen, got.ep.Gen = nil, nil
			got.wake = now
		}
		if ref.ep.QueuedFlits() != got.ep.QueuedFlits() || ref.ep.SentFlits != got.ep.SentFlits {
			fail(now, "the backlog")
		}
		if ref.stream(now) != got.stream(now) {
			fail(now, "the stream position")
		}
		if (now%97 == 0 || removed) && !bytes.Equal(ref.checkpoint(now), got.checkpoint(now)) {
			fail(now, "the endpoint's checkpoint")
		}
		ref.sink(now)
		got.sink(now)
		switch {
		case direct:
			refGen(now, ref.ep)
			gotGen(now, got.ep)
		case caller == "sleeping" && now < got.wake:
		default:
			got.ep.Step(now)
			got.wake = got.ep.NextWake(now)
		}
		if !direct {
			ref.ep.Step(now)
		}
		if removed {
			ref.ann, got.ann = 0, 0 // handed back: the stream is per-cycle again
		}
	}
	if !bytes.Equal(ref.checkpoint(cycles), got.checkpoint(cycles)) {
		fail(cycles, "the endpoint's checkpoint")
	}
	if fmt.Sprint(ref.sent) != fmt.Sprint(got.sent) {
		t.Fatalf("%v, %s caller: packets (injection cycle->destination)\n%v\nper-cycle generator's\n%v", gc, caller, got.sent, ref.sent)
	}
}

// TestGeneratorLookaheadExact holds Uniform and Permutation to their
// per-cycle form over loads from zero to full, a delayed start, a
// destination subset (drawn by an endpoint inside it, so self-exclusion
// redraws), a generator removed mid-run, and each way of calling them.
func TestGeneratorLookaheadExact(t *testing.T) {
	var cases []genCase
	for _, load := range []float64{0, 1e-4, 0.05, 0.3, 1} {
		for _, start := range []sim.Tick{0, 1000} {
			cases = append(cases,
				genCase{seed: 11, load: load, start: start, partner: -1},
				genCase{seed: 12, load: load, start: start, dests: []int32{5, 9, 13}, partner: -1, id: 5})
		}
		cases = append(cases, genCase{seed: 13, load: load, partner: 40, id: 2})
	}
	for _, gc := range cases {
		for _, caller := range []string{"sleeping", "awake", "direct"} {
			checkLookahead(t, gc, caller, 4000, 0)
		}
		checkLookahead(t, gc, "sleeping", 4000, 2500)
	}
}

// FuzzGenLookahead searches the same claim over any load, start, seed,
// removal cycle and caller.
func FuzzGenLookahead(f *testing.F) {
	f.Add(uint64(1), uint16(3000), uint16(0), false, false, uint8(0), uint16(0))
	f.Add(uint64(2), uint16(65535), uint16(700), true, false, uint8(1), uint16(1500))
	f.Add(uint64(3), uint16(7), uint16(0), false, true, uint8(2), uint16(0))
	f.Add(uint64(4), uint16(0), uint16(5), false, false, uint8(0), uint16(40))
	f.Fuzz(func(t *testing.T, seed uint64, load, start uint16, subset, perm bool, caller uint8, clear uint16) {
		gc := genCase{seed: seed, load: float64(load) / 65535, start: sim.Tick(start % 2000), partner: -1}
		if subset {
			gc.dests, gc.id = []int32{5, 9, 13}, 9
		}
		if perm {
			gc.partner, gc.id = 40, 2
		}
		checkLookahead(t, gc, []string{"sleeping", "awake", "direct"}[caller%3], 3000, sim.Tick(clear%3000))
	})
}
