package endpoint

import (
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/proto"
)

// retransCfg enables source retransmission timers with short, test-sized
// timeouts on the stashless tiny config.
func retransCfg(c *core.Config) {
	c.Retrans = core.RetransParams{
		Enabled:         true,
		SwitchTimeout:   50,
		SwitchRetries:   3,
		EndpointTimeout: 100,
		EndpointRetries: 3,
		ScanEvery:       1,
	}
}

// runTo steps the endpoint through [from, to), draining injected flits
// after every cycle so link backpressure never hides a resend.
func (h *harness) runTo(from, to int64) []proto.Flit {
	var out []proto.Flit
	for now := from; now < to; now++ {
		h.ep.Step(now)
		out = append(out, h.drain(now)...)
	}
	return out
}

// packets groups drained flits by PktID, preserving first-seen order.
func packets(flits []proto.Flit) map[uint64][]proto.Flit {
	m := map[uint64][]proto.Flit{}
	for _, f := range flits {
		m[f.PktID] = append(m[f.PktID], f)
	}
	return m
}

func TestRetransTimerFiresWithoutAck(t *testing.T) {
	h := newHarness(t, retransCfg)
	h.ep.EnqueueMessage(0, 4, proto.ClassDefault, 1)
	flits := h.runTo(0, 300)
	byPkt := packets(flits)
	if len(byPkt) != 1 {
		t.Fatalf("got %d distinct PktIDs, want 1 (resends reuse the ID)", len(byPkt))
	}
	for id, fs := range byPkt {
		// Original 4 flits plus at least one full resend.
		if len(fs) < 8 {
			t.Fatalf("pkt %x: %d flits drained, want >= 8 (original + resend)", id, len(fs))
		}
		if fs[0].Flags&proto.FlagRetransmit != 0 {
			t.Fatal("original transmission carries FlagRetransmit")
		}
		rtx := fs[4]
		if rtx.Flags&proto.FlagRetransmit == 0 {
			t.Fatal("resend lacks FlagRetransmit")
		}
		if rtx.Birth != fs[0].Birth {
			t.Fatalf("resend birth %d != original %d", rtx.Birth, fs[0].Birth)
		}
	}
	if h.ep.Retransmits == 0 {
		t.Fatal("Retransmits counter not incremented")
	}
	if got := h.ep.Collector.EndpointRetransmits; got != h.ep.Retransmits {
		t.Fatalf("collector counted %d retransmits, endpoint %d", got, h.ep.Retransmits)
	}
}

func TestRetransAckCancelsTimer(t *testing.T) {
	h := newHarness(t, retransCfg)
	h.ep.EnqueueMessage(0, 4, proto.ClassDefault, 1)
	var pktID uint64
	for now := int64(0); now < 300; now++ {
		h.ep.Step(now)
		for _, f := range h.drain(now) {
			pktID = f.PktID
			if f.Tail() {
				// Acknowledge as soon as the tail leaves.
				h.fromSw.SendFlit(now, proto.Flit{
					Src: f.Dst, Dst: f.Src, MsgID: uint32(f.Size), PktID: f.PktID,
					Birth: now, Size: 1, Kind: proto.ACK,
					Flags: proto.FlagHead | proto.FlagTail, MidGroup: -1,
				})
			}
		}
	}
	if h.ep.Retransmits != 0 {
		t.Fatalf("acked packet resent %d times", h.ep.Retransmits)
	}
	if h.ep.outstanding.Get(pktID) != nil {
		t.Fatal("outstanding record survives its ACK")
	}
	if h.ep.outstanding.Armed() != 0 {
		// Timers self-clean on the scan after the ACK.
		t.Fatalf("%d stale timers never discarded", h.ep.outstanding.Armed())
	}
}

// TestRetransBackoffAndExhaustion drives one packet through the full
// retry ladder with no ACKs ever returning: each resend interval must
// follow the exponential backoff table, and after EndpointRetries the
// packet is abandoned.
func TestRetransBackoffAndExhaustion(t *testing.T) {
	h := newHarness(t, retransCfg)
	h.ep.EnqueueMessage(0, 1, proto.ClassDefault, 1)
	var sent []int64 // cycle of each (re)transmission of the head flit
	for now := int64(0); now < 3000; now++ {
		h.ep.Step(now)
		for _, f := range h.drain(now) {
			if f.Head() {
				sent = append(sent, now)
			}
		}
	}
	// retries=1..3 arm Backoff(100, 1..3) = 200, 400, 800.
	wantGaps := []int64{fault.Backoff(100, 1), fault.Backoff(100, 2), fault.Backoff(100, 3)}
	if len(sent) != 4 {
		t.Fatalf("packet transmitted %d times, want 4 (original + 3 retries)", len(sent))
	}
	for i, want := range wantGaps {
		// The first interval runs from the *birth* timer (base timeout),
		// but the resend is queued at scan time and injected within a few
		// cycles; later gaps are measured resend-to-resend and must be at
		// least the armed backoff, with only injection jitter above it.
		gap := sent[i+1] - sent[i]
		var armed int64
		if i == 0 {
			armed = 100 // initial deadline uses the base timeout
		} else {
			armed = wantGaps[i-1]
		}
		_ = want
		if gap < armed || gap > armed+20 {
			t.Fatalf("gap %d: %d cycles, want in [%d,%d]", i, gap, armed, armed+20)
		}
	}
	if h.ep.Abandoned != 1 {
		t.Fatalf("Abandoned = %d, want 1", h.ep.Abandoned)
	}
	if h.ep.Collector.RetransAbandons != 1 {
		t.Fatalf("collector RetransAbandons = %d, want 1", h.ep.Collector.RetransAbandons)
	}
	if h.ep.outstanding.Len() != 0 {
		t.Fatal("abandoned packet still outstanding")
	}
	if got := h.ep.QueuedFlits(); got != 0 {
		t.Fatalf("queuedFlits = %d after abandonment, want 0", got)
	}
}

func TestRetransNackTriggersImmediateResend(t *testing.T) {
	h := newHarness(t, retransCfg)
	h.ep.EnqueueMessage(0, 2, proto.ClassDefault, 1)
	resent := false
	for now := int64(0); now < 80 && !resent; now++ {
		h.ep.Step(now)
		for _, f := range h.drain(now) {
			if f.Flags&proto.FlagRetransmit != 0 {
				resent = true
			}
			if f.Tail() && f.Flags&proto.FlagRetransmit == 0 {
				h.fromSw.SendFlit(now, proto.Flit{
					Src: f.Dst, Dst: f.Src, MsgID: uint32(f.Size), PktID: f.PktID,
					Birth: now, Size: 1, Kind: proto.ACK,
					Flags: proto.FlagHead | proto.FlagTail | proto.FlagNack, MidGroup: -1,
				})
			}
		}
	}
	// A NACK in a stashless mode resends well before the 100-cycle timer.
	if !resent {
		t.Fatal("NACK did not trigger a resend before the ACK timer")
	}
	if h.ep.Retransmits != 1 {
		t.Fatalf("Retransmits = %d, want 1", h.ep.Retransmits)
	}
}

func TestDuplicateDeliverySuppressed(t *testing.T) {
	h := newHarness(t, retransCfg)
	data := proto.Flit{
		Src: 0, Dst: 3, MsgID: 9, PktID: proto.MakePktID(0, 7), Birth: 0,
		Size: 1, Kind: proto.Data, Flags: proto.FlagHead | proto.FlagTail,
		MidGroup: -1,
	}
	h.fromSw.SendFlit(0, data)
	h.ep.Step(1)
	h.fromSw.SendFlit(1, data)
	h.ep.Step(2)
	if h.ep.DeliveredUnique != 1 {
		t.Fatalf("DeliveredUnique = %d, want 1", h.ep.DeliveredUnique)
	}
	if h.ep.DupDelivered != 1 {
		t.Fatalf("DupDelivered = %d, want 1", h.ep.DupDelivered)
	}
	if h.ep.Collector.DuplicatesSuppressed != 1 {
		t.Fatalf("collector DuplicatesSuppressed = %d, want 1", h.ep.Collector.DuplicatesSuppressed)
	}
	// Both arrivals must be ACKed or a sender whose first ACK dropped
	// would resend forever. Some may already be on the wire.
	h.ep.Step(3)
	h.ep.Step(4)
	acks := 0
	for _, f := range h.drain(5) {
		if f.Kind == proto.ACK {
			acks++
		}
	}
	acks += h.ep.ackQ.Len()
	if acks != 2 {
		t.Fatalf("%d ACKs produced, want 2 (duplicate re-ACKed)", acks)
	}
}

func TestCorruptDataIsNacked(t *testing.T) {
	h := newHarness(t, func(c *core.Config) {
		retransCfg(c)
		c.Fault = &fault.Plan{Seed: 1, CorruptRate: 0.5}
	})
	if !h.cfg.VerifyChecksums() {
		t.Fatal("checksum verification not active")
	}
	good := proto.Flit{
		Src: 0, Dst: 3, MsgID: 9, PktID: proto.MakePktID(0, 8), Birth: 0,
		Size: 1, Kind: proto.Data, Flags: proto.FlagHead | proto.FlagTail,
		MidGroup: -1,
	}
	good.Csum = proto.FlitSum(&good)
	bad := good
	bad.Csum ^= 0x5555
	h.fromSw.SendFlit(0, bad)
	h.ep.Step(1)
	if h.ep.DeliveredUnique != 0 {
		t.Fatal("corrupt packet delivered")
	}
	if h.ep.Collector.CorruptPkts != 1 {
		t.Fatalf("CorruptPkts = %d, want 1", h.ep.Collector.CorruptPkts)
	}
	if got := h.ep.ackQ.Len(); got != 1 {
		t.Fatalf("%d ACKs queued, want 1 NACK", got)
	}
	if h.ep.ackQ.Front(h.ep.pools.Flits()).Flags&proto.FlagNack == 0 {
		t.Fatal("corrupt arrival acknowledged positively")
	}
	// The clean copy then delivers normally.
	h.fromSw.SendFlit(1, good)
	h.ep.Step(2)
	if h.ep.DeliveredUnique != 1 {
		t.Fatal("clean retry not delivered")
	}
}

// TestRetransTimerArmingTable checks the armed deadline after each event
// in a scripted sequence, table-driven over the ladder's states.
func TestRetransTimerArmingTable(t *testing.T) {
	cases := []struct {
		name    string
		retries int
		base    int64
		want    int64
	}{
		{"initial", 0, 100, 100},      // startPacket arms base timeout
		{"first retry", 1, 100, 200},  // Backoff(100,1)
		{"second retry", 2, 100, 400}, // Backoff(100,2)
		{"third retry", 3, 100, 800},  // Backoff(100,3)
		{"deep saturates", 64, 100, 100 << 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got int64
			if tc.retries == 0 {
				got = tc.base
			} else {
				got = fault.Backoff(tc.base, tc.retries)
			}
			if got != tc.want {
				t.Fatalf("deadline delta = %d, want %d", got, tc.want)
			}
		})
	}
}
