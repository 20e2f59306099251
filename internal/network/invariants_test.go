package network

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"stashsim/internal/buffer"
	"stashsim/internal/core"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/topo"
	"stashsim/internal/traffic"
)

// buildChecked builds a tiny network in the given mode with traffic and
// the invariant checker auditing every cycle.
func buildChecked(t *testing.T, mode core.StashMode) (*Network, *core.Invariants) {
	t.Helper()
	cfg := core.TinyConfig()
	cfg.Mode = mode
	if mode == core.StashCongestion {
		cfg.ECN = core.DefaultECN()
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	iv := NewInvariants(n, 1)
	n.Observe(iv)
	rng := sim.NewRNG(7)
	rate := n.ChannelRate()
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			0.3, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	return n, iv
}

// TestInvariantsHoldInAllModes drives every stash mode under load with a
// per-cycle audit: any conservation-law break panics the run.
func TestInvariantsHoldInAllModes(t *testing.T) {
	for _, mode := range []core.StashMode{core.StashOff, core.StashE2E, core.StashCongestion} {
		t.Run(fmt.Sprintf("%v", mode), func(t *testing.T) {
			n, iv := buildChecked(t, mode)
			n.Run(5000)
			if iv.Checks != 5000 {
				t.Fatalf("audited %d of 5000 cycles", iv.Checks)
			}
		})
	}
}

// TestInvariantsHoldUnderErrorInjection covers retransmission, the
// hardest conservation case: copies are minted from retained store
// entries and freed by later ACKs.
func TestInvariantsHoldUnderErrorInjection(t *testing.T) {
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	cfg.RetainPayload = true
	cfg.ErrorRate = 0.05
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	iv := NewInvariants(n, 1)
	n.Observe(iv)
	rng := sim.NewRNG(3)
	rate := n.ChannelRate()
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			0.15, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	n.Run(8000)
	if iv.Checks == 0 {
		t.Fatal("checker never ran")
	}
}

// expectViolation runs fn and asserts it panics with an invariant
// message containing want.
func expectViolation(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want invariant violation containing %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "core: invariant violated") || !strings.Contains(msg, want) {
			t.Fatalf("panic %v does not contain %q", r, want)
		}
	}()
	fn()
}

func TestInvariantsCatchFlitLeak(t *testing.T) {
	n, iv := buildChecked(t, core.StashOff)
	n.Run(100)
	iv.Out = io.Discard
	orig := iv.ExtCreated
	iv.ExtCreated = func() int64 { return orig() + 1 }
	expectViolation(t, "flit conservation", func() { n.Step() })
}

func TestInvariantsCatchSRVCOnLink(t *testing.T) {
	n, iv := buildChecked(t, core.StashOff)
	n.Run(100)
	iv.Out = io.Discard
	toSw, _ := n.Endpoints[0].AuditLinks()
	toSw.SendFlit(int64(n.Now), proto.Flit{VC: proto.VCStore, Size: 1})
	expectViolation(t, "S/R confinement", func() { n.Step() })
}

func TestInvariantsCatchCreditMismatch(t *testing.T) {
	n, iv := buildChecked(t, core.StashOff)
	n.Run(100)
	iv.Out = io.Discard
	// Steal one reserved credit on the first switch-to-switch edge: the
	// sender now undercounts the downstream buffer's free space.
	d := n.Cfg.Topo
	port := d.P // first non-endpoint port
	if d.PortClass(port) == topo.Endpoint {
		t.Fatalf("port %d is endpoint-facing", port)
	}
	f := proto.Flit{VC: 0, Size: 1}
	n.Switches[0].AuditOutCredits(port).Take(&f)
	expectViolation(t, "credit conservation", func() { n.Step() })
}

func TestInvariantsCatchStashInStashlessSwitch(t *testing.T) {
	n, iv := buildChecked(t, core.StashOff)
	n.Run(100)
	iv.Out = io.Discard
	// Force a flit into a zero-capacity pool, compensating the global
	// flit count so only the stash law trips. The audit runs directly —
	// stepping would let the input stage retrieve the flit into a tile
	// first (tripping the tile-side S/R law instead).
	n.Switches[0].PortStash(0).PutCongested(proto.Flit{VC: 0, Size: 1})
	orig := iv.ExtCreated
	iv.ExtCreated = func() int64 { return orig() + 1 }
	expectViolation(t, "zero capacity", func() { iv.AtBarrier(n.Now) })
}

func TestInvariantsCatchStashOverflow(t *testing.T) {
	n, iv := buildChecked(t, core.StashCongestion)
	n.Run(100)
	iv.Out = io.Discard
	// Find a pool with real capacity and stuff it past its limit.
	var pool *buffer.StashPool
	for p := 0; p < n.Cfg.Topo.Radix() && pool == nil; p++ {
		if cand := n.Switches[0].PortStash(p); cand.Capacity() > 0 {
			pool = cand
		}
	}
	if pool == nil {
		t.Fatal("no stash-capable port on sw0")
	}
	// A negative-size delete is the signature of corrupted size metadata;
	// it inflates the occupancy past capacity (and is self-compensating
	// in the flit-conservation law, isolating the occupancy law). Delete
	// ignores packets without a live copy, so fabricate one first and
	// compensate its flit in the global count.
	pool.PutCopy(proto.Flit{PktID: 0, Size: 1})
	orig := iv.ExtCreated
	iv.ExtCreated = func() int64 { return orig() + 1 }
	pool.Delete(0, -(pool.Capacity() - pool.Used() + 1))
	expectViolation(t, "stash occupancy", func() { iv.AtBarrier(n.Now) })
}

// TestInvariantsCatchFreedBufInBank corrupts a retained stash payload
// behind its store entry's back: its slot freed while the entry still
// names it, the use-after-free that would retransmit whatever flit takes
// the slot next, or linked onto the bank's retrieval queue as well. Either
// way the slot sits on two lists, and the flit-pool law names the pool.
func TestInvariantsCatchFreedBufInBank(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(flits *buffer.FlitPool, pool *buffer.StashPool, slot int32)
	}{
		{"freed", func(flits *buffer.FlitPool, _ *buffer.StashPool, slot int32) {
			flits.Take(slot)
		}},
		{"on the retrieval queue", func(flits *buffer.FlitPool, pool *buffer.StashPool, slot int32) {
			var retrQ *buffer.FlitList // AuditLists hands the retrieval queue first
			pool.AuditLists(func(l *buffer.FlitList) {
				if retrQ == nil {
					retrQ = l
				}
			})
			retrQ.Link(flits, slot)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.TinyConfig()
			cfg.Mode = core.StashE2E
			cfg.RetainPayload = true
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			iv := NewInvariants(n, 1)
			n.Observe(iv)
			n.Run(100)
			iv.Out = io.Discard
			var pool *buffer.StashPool
			for p := 0; p < n.Cfg.Topo.Radix() && pool == nil; p++ {
				if cand := n.Switches[0].PortStash(p); cand.Capacity() > 0 {
					pool = cand
				}
			}
			if pool == nil {
				t.Fatal("no stash-capable port on sw0")
			}
			// Complete a one-flit stash copy so the bank retains its
			// payload, compensating the fabricated flit in the global count.
			pool.PutCopy(proto.Flit{PktID: 7, Size: 1})
			orig := iv.ExtCreated
			iv.ExtCreated = func() int64 { return orig() + 1 }
			iv.AtBarrier(n.Now) // healthy retained copy passes the audit
			payload, ok := pool.Retained(7)
			if !ok {
				t.Fatal("stash copy not retained")
			}
			tc.corrupt(n.Switches[0].FlitPool(), pool, payload.Head())
			expectViolation(t, "flit pool: group of sw0-sw3: slot", func() { iv.AtBarrier(n.Now) })
			expectViolation(t, "sits on two lists", func() { iv.AtBarrier(n.Now) })
		})
	}
}

// TestInvariantsCatchFlitPoolCorruption corrupts a group's pools behind
// its queues' backs, in the ways a relink bug would: a flit slot taken and
// linked nowhere, a flit slot linked onto a second queue, a slot on the
// wire linked onto an input queue as well, a credit slot taken and linked
// nowhere, a slot on an endpoint's ACK queue linked onto an input queue as
// well, a send-queue packet slot taken and linked nowhere, and a side-band
// slot on two switches' side bands. None moves a count the conservation
// laws read, so only the pool law trips, naming the pool and its group.
func TestInvariantsCatchFlitPoolCorruption(t *testing.T) {
	for _, tc := range []struct {
		name, pool, want string
		corrupt          func(t *testing.T, n *Network, queues []*buffer.FlitList)
	}{
		{"leak", "flit pool", "is on no list", func(_ *testing.T, n *Network, _ []*buffer.FlitList) {
			n.Switches[0].FlitPool().Put(proto.Flit{})
		}},
		{"double link", "flit pool", "sits on two lists", func(_ *testing.T, n *Network, queues []*buffer.FlitList) {
			pool := n.Switches[0].FlitPool()
			i := pool.Put(proto.Flit{})
			queues[0].Link(pool, i)
			queues[1].Link(pool, i)
		}},
		{"wire and queue", "flit pool", "sits on two lists", func(t *testing.T, n *Network, queues []*buffer.FlitList) {
			pool := n.Switches[0].FlitPool()
			f := wireFront(t, n)
			for i := int32(0); int(i) < pool.Cap(); i++ {
				if pool.Get(i) == f {
					queues[0].Link(pool, i)
					return
				}
			}
			t.Fatal("the flit on the wire is in no slot of its consumer's pool")
		}},
		{"credit leak", "credit pool", "is on no list", func(_ *testing.T, n *Network, _ []*buffer.FlitList) {
			leak(n.Switches[0].CreditPool())
		}},
		{"ack queue double link", "flit pool", "sits on two lists", func(_ *testing.T, n *Network, queues []*buffer.FlitList) {
			ep := n.Endpoints[0]
			var ackQ *buffer.FlitList
			ep.FlitLists(func(l *buffer.FlitList) { ackQ = l })
			pool := ep.Pools().Flits()
			i := pool.Put(proto.Flit{})
			ackQ.Link(pool, i)
			queues[0].Link(pool, i)
		}},
		{"send-queue leak", "send-queue pool", "is on no list", func(_ *testing.T, n *Network, _ []*buffer.FlitList) {
			leak(n.Endpoints[0].Pools().Sends())
		}},
		{"side band double link", "side-band pool", "sits on two lists", func(_ *testing.T, n *Network, _ []*buffer.FlitList) {
			pool, sb0 := n.Switches[0].AuditSideband()
			_, sb1 := n.Switches[1].AuditSideband()
			i := put(pool)
			sb0.Slots().Link(pool, i)
			sb1.Slots().Link(pool, i)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, iv := buildChecked(t, core.StashE2E)
			n.Run(100)
			iv.Out = io.Discard
			iv.AtBarrier(n.Now) // the healthy pools pass
			var queues []*buffer.FlitList
			n.Switches[0].AuditInBuf(0).AuditLists(func(l *buffer.FlitList) { queues = append(queues, l) })
			tc.corrupt(t, n, queues)
			expectViolation(t, tc.pool+": group of sw0-sw3: slot", func() { iv.AtBarrier(n.Now) })
			expectViolation(t, tc.want, func() { iv.AtBarrier(n.Now) })
		})
	}
}

// wireFront runs n until a flit is on the wire of one of switch 0's
// endpoint links, whose flits live in its group's pool, and returns it.
func wireFront(t *testing.T, n *Network) *proto.Flit {
	t.Helper()
	for k := 0; k < 1000; k++ {
		for p := 0; p < n.Cfg.Topo.Radix(); p++ {
			if n.Cfg.Topo.PortClass(p) != topo.Endpoint {
				continue
			}
			toSw, fromSw := n.Endpoints[n.Cfg.Topo.EndpointID(0, p)].AuditLinks()
			for _, l := range []*core.Link{toSw, fromSw} {
				if f := l.PeekFlit(math.MaxInt64); f != nil {
					return f
				}
			}
		}
		n.Run(1)
	}
	t.Fatal("no flit on switch 0's endpoint links in 1000 cycles")
	return nil
}

// leak takes a slot of p and links it nowhere.
func leak[T any](p *buffer.Pool[T]) { put(p) }

// put stores a zero value in a free slot of p and returns the slot.
func put[T any](p *buffer.Pool[T]) int32 {
	var v T
	return p.Put(v)
}

// TestInvariantsNilAndSparse covers the sparse-audit interval (a disabled
// checker is simply not on the observer list).
func TestInvariantsNilAndSparse(t *testing.T) {
	n, iv := buildChecked(t, core.StashOff)
	iv.Every = 10
	n.Run(100)
	if got := iv.Checks; got != 10 {
		t.Fatalf("sparse audit ran %d times, want 10", got)
	}
}
