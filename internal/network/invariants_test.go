package network

import (
	"fmt"
	"io"
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
func buildChecked(t *testing.T, mode core.StashMode) *Network {
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
	n.EnableInvariants(1)
	rng := sim.NewRNG(7)
	rate := n.ChannelRate()
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			0.3, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	return n
}

// TestInvariantsHoldInAllModes drives every stash mode under load with a
// per-cycle audit: any conservation-law break panics the run.
func TestInvariantsHoldInAllModes(t *testing.T) {
	for _, mode := range []core.StashMode{core.StashOff, core.StashE2E, core.StashCongestion} {
		t.Run(fmt.Sprintf("%v", mode), func(t *testing.T) {
			n := buildChecked(t, mode)
			n.Run(5000)
			if n.Invariants.Checks != 5000 {
				t.Fatalf("audited %d of 5000 cycles", n.Invariants.Checks)
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
	n.EnableInvariants(1)
	rng := sim.NewRNG(3)
	rate := n.ChannelRate()
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			0.15, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	n.Run(8000)
	if n.Invariants.Checks == 0 {
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
	n := buildChecked(t, core.StashOff)
	n.Run(100)
	n.Invariants.Out = io.Discard
	orig := n.Invariants.ExtCreated
	n.Invariants.ExtCreated = func() int64 { return orig() + 1 }
	expectViolation(t, "flit conservation", func() { n.Step() })
}

func TestInvariantsCatchSRVCOnLink(t *testing.T) {
	n := buildChecked(t, core.StashOff)
	n.Run(100)
	n.Invariants.Out = io.Discard
	toSw, _ := n.Endpoints[0].AuditLinks()
	toSw.SendFlit(int64(n.Now), proto.Flit{VC: proto.VCStore, Size: 1})
	expectViolation(t, "S/R confinement", func() { n.Step() })
}

func TestInvariantsCatchCreditMismatch(t *testing.T) {
	n := buildChecked(t, core.StashOff)
	n.Run(100)
	n.Invariants.Out = io.Discard
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
	n := buildChecked(t, core.StashOff)
	n.Run(100)
	n.Invariants.Out = io.Discard
	// Force a flit into a zero-capacity pool, compensating the global
	// flit count so only the stash law trips. The audit runs directly —
	// stepping would let the input stage retrieve the flit into a tile
	// first (tripping the tile-side S/R law instead).
	n.Switches[0].PortStash(0).PutCongested(proto.Flit{VC: 0, Size: 1})
	orig := n.Invariants.ExtCreated
	n.Invariants.ExtCreated = func() int64 { return orig() + 1 }
	expectViolation(t, "zero capacity", func() { n.Invariants.AtBarrier(n.Now) })
}

func TestInvariantsCatchStashOverflow(t *testing.T) {
	n := buildChecked(t, core.StashCongestion)
	n.Run(100)
	n.Invariants.Out = io.Discard
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
	orig := n.Invariants.ExtCreated
	n.Invariants.ExtCreated = func() int64 { return orig() + 1 }
	pool.Delete(0, -(pool.Capacity() - pool.Used() + 1))
	expectViolation(t, "stash occupancy", func() { n.Invariants.AtBarrier(n.Now) })
}

func TestInvariantsCatchFreedBufInBank(t *testing.T) {
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	cfg.RetainPayload = true
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.EnableInvariants(1)
	n.Run(100)
	n.Invariants.Out = io.Discard
	var pool *buffer.StashPool
	for p := 0; p < n.Cfg.Topo.Radix() && pool == nil; p++ {
		if cand := n.Switches[0].PortStash(p); cand.Capacity() > 0 {
			pool = cand
		}
	}
	if pool == nil {
		t.Fatal("no stash-capable port on sw0")
	}
	// Complete a one-flit stash copy so the bank retains its payload
	// buffer, compensating the fabricated flit in the global count.
	pool.PutCopy(proto.Flit{PktID: 7, Size: 1})
	orig := n.Invariants.ExtCreated
	n.Invariants.ExtCreated = func() int64 { return orig() + 1 }
	n.Invariants.AtBarrier(n.Now) // healthy retained copy passes the audit
	// Now corrupt it: drop the bank's reference behind the pool's back.
	// TakeCopy hands us a second reference; releasing both frees the
	// buffer to the freelist while the store entry still points at it —
	// the exact use-after-free the liveness law exists to catch.
	b, ok := pool.TakeCopy(7)
	if !ok {
		t.Fatal("stash copy not retained")
	}
	b.Release()
	b.Release()
	expectViolation(t, "stash liveness", func() { n.Invariants.AtBarrier(n.Now) })
}

// TestInvariantsNilAndSparse covers the sparse-audit interval (a disabled
// checker is simply not on the observer list).
func TestInvariantsNilAndSparse(t *testing.T) {
	n := buildChecked(t, core.StashOff)
	n.Invariants.Every = 10
	n.Run(100)
	if got := n.Invariants.Checks; got != 10 {
		t.Fatalf("sparse audit ran %d times, want 10", got)
	}
}
