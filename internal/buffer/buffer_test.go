package buffer

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"stashsim/internal/proto"
	"stashsim/internal/snapshot"
)

func TestReserves(t *testing.T) {
	cases := []struct {
		cap, vcs, want int
	}{
		{1000, 6, 24}, // paper input buffer: full packet reserve
		{125, 6, 10},  // stashed endpoint partition: capped at cap/12
		{0, 6, 0},
		{12, 6, 1},
		{1000, 0, 0},
	}
	for _, c := range cases {
		if got := Reserves(c.cap, c.vcs); got != c.want {
			t.Fatalf("Reserves(%d,%d) = %d, want %d", c.cap, c.vcs, got, c.want)
		}
	}
}

// senderReceiver pairs a CreditCounter with a DAMQ the way a link does.
type senderReceiver struct {
	cc CreditCounter
	dq DAMQ
}

func newSR(capacity, vcs int) *senderReceiver {
	return &senderReceiver{NewCreditCounter(capacity, vcs), NewDAMQ(capacity, vcs)}
}

func (sr *senderReceiver) send(vc int) proto.Flit {
	f := proto.Flit{VC: uint8(vc), Flags: proto.FlagHead | proto.FlagTail, Size: 1}
	sr.cc.Take(&f)
	sr.dq.Push(f)
	return f
}

func (sr *senderReceiver) recv(vc int) {
	_, cr := sr.dq.Pop(vc)
	sr.cc.Return(cr)
}

func TestDAMQCreditConservation(t *testing.T) {
	sr := newSR(100, 4)
	// Drive a random workload and check sender/receiver agreement.
	rngState := uint64(12345)
	rnd := func(n int) int {
		rngState = rngState*6364136223846793005 + 1
		return int(rngState>>33) % n
	}
	queued := make([]int, 4)
	for step := 0; step < 100000; step++ {
		vc := rnd(4)
		if rnd(2) == 0 {
			if sr.cc.Avail(vc) > 0 {
				sr.send(vc)
				queued[vc]++
			}
		} else if queued[vc] > 0 {
			sr.recv(vc)
			queued[vc]--
		}
		if sr.dq.Avail(vc) < 0 {
			t.Fatal("negative availability")
		}
	}
	// Drain and verify full credit recovery.
	for vc := 0; vc < 4; vc++ {
		for queued[vc] > 0 {
			sr.recv(vc)
			queued[vc]--
		}
	}
	for vc := 0; vc < 4; vc++ {
		if sr.cc.Avail(vc) != int(sr.cc.resvFree[vc]+sr.cc.shared) {
			t.Fatal("inconsistent counter")
		}
		if got := sr.cc.Avail(vc); got != Reserves(100, 4)+100-4*Reserves(100, 4) {
			t.Fatalf("vc %d: avail %d after drain", vc, got)
		}
	}
	if sr.dq.Used() != 0 {
		t.Fatal("DAMQ not empty after drain")
	}
}

func TestDAMQSingleVCCanUseShared(t *testing.T) {
	sr := newSR(100, 4)
	n := 0
	for sr.cc.Avail(0) > 0 {
		sr.send(0)
		n++
	}
	resv := Reserves(100, 4)
	want := resv + (100 - 4*resv)
	if n != want {
		t.Fatalf("single VC filled %d slots, want %d", n, want)
	}
	// Other VCs must still have their reserved quota.
	for vc := 1; vc < 4; vc++ {
		if sr.cc.Avail(vc) != resv {
			t.Fatalf("vc %d starved: avail %d", vc, sr.cc.Avail(vc))
		}
	}
}

func TestDAMQOccupiedMask(t *testing.T) {
	d := NewDAMQ(100, 4)
	f := proto.Flit{VC: 2}
	d.Push(f)
	if d.Occupied() != 1<<2 {
		t.Fatalf("mask %b", d.Occupied())
	}
	d.Pop(2)
	if d.Occupied() != 0 {
		t.Fatalf("mask %b after pop", d.Occupied())
	}
}

func TestDAMQPoolStampHonored(t *testing.T) {
	d := NewDAMQ(100, 2)
	shared := proto.Flit{VC: 0, Flags: proto.FlagShared}
	d.Push(shared)
	if d.resvUsed[0] != 0 || d.shared != 1 {
		t.Fatal("shared stamp not honored")
	}
	reserved := proto.Flit{VC: 0}
	d.Push(reserved)
	if d.resvUsed[0] != 1 {
		t.Fatal("reserved stamp not honored")
	}
	// Credits must carry the same pool back, in FIFO order.
	if _, cr := d.Pop(0); !cr.Shared {
		t.Fatal("first pop should return the shared-pool credit")
	}
	if _, cr := d.Pop(0); cr.Shared {
		t.Fatal("second pop should return the reserved-quota credit")
	}
}

// TestOutBufRetention: a port sends at most one flit a cycle, each due
// one RTT later, and a sent flit's space comes back at its deadline, not
// before. A deadline the window cannot hold — a repeated or earlier one,
// or one a whole RTT after the oldest still held — panics.
func TestOutBufRetention(t *testing.T) {
	const rtt = 20
	b := NewOutBuf(new(FlitPool), 10, 2, newRetention(rtt))
	for i := 0; i < 10; i++ {
		b.Push(proto.Flit{VC: 0})
	}
	if b.Free() != 0 {
		t.Fatal("should be full")
	}
	// Send one flit on each of cycles 0..4: released at 20..24.
	for now := int64(0); now < 5; now++ {
		b.Release(now)
		b.Send(0, now+rtt)
	}
	if b.Free() != 0 || b.Retained() != 5 {
		t.Fatalf("free %d retained %d after five sends, want 0 and 5", b.Free(), b.Retained())
	}
	for _, step := range []struct {
		now    int64
		free   int
		nextAt int64
	}{
		{rtt - 1, 0, rtt},
		{rtt, 1, rtt + 1},
		{rtt + 3, 4, rtt + 4},
		{1000, 5, math.MaxInt64},
	} {
		due := b.ReleaseDue(step.now)
		b.Release(step.now)
		if b.Free() != step.free || b.NextRelease() != step.nextAt || b.ReleaseDue(step.now) {
			t.Fatalf("at %d: free %d, next release %d, want %d and %d", step.now, b.Free(), b.NextRelease(), step.free, step.nextAt)
		}
		if want := step.now >= rtt; due != want {
			t.Fatalf("at %d: ReleaseDue %v before Release, want %v", step.now, due, want)
		}
	}
	for _, tc := range []struct {
		name  string
		first int64
		then  int64
	}{
		{"repeated", 100, 100},
		{"earlier", 100, 99},
		{"past-window", 100, 100 + rtt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewOutBuf(new(FlitPool), 10, 2, newRetention(rtt))
			b.Push(proto.Flit{VC: 0})
			b.Push(proto.Flit{VC: 0})
			b.Send(0, tc.first)
			defer func() {
				if recover() == nil {
					t.Fatalf("Send due at %d after one due at %d did not panic", tc.then, tc.first)
				}
			}()
			b.Send(0, tc.then)
		})
	}
}

func TestOutBufOccupiedMask(t *testing.T) {
	b := NewOutBuf(new(FlitPool), 10, 4, newRetention(100))
	b.Push(proto.Flit{VC: 3})
	if b.Occupied() != 1<<3 {
		t.Fatalf("mask %b", b.Occupied())
	}
	b.Send(3, 50)
	if b.Occupied() != 0 {
		t.Fatal("mask not cleared")
	}
}

func TestStashPoolE2ELifecycle(t *testing.T) {
	p := NewStashPool(100, false)
	p.Reserve(24)
	if p.Free() != 76 {
		t.Fatalf("free %d after reserve", p.Free())
	}
	done := false
	for i := 0; i < 24; i++ {
		f := proto.Flit{PktID: 9, Size: 24, Seq: uint8(i)}
		done = p.PutCopy(f)
	}
	if !done {
		t.Fatal("tail did not complete the copy")
	}
	if p.Used() != 24 {
		t.Fatalf("used %d", p.Used())
	}
	p.Delete(9, 24)
	if p.Used() != 0 || p.Free() != 100 {
		t.Fatal("delete did not free space")
	}
}

func TestStashPoolCongestionFIFO(t *testing.T) {
	p := NewStashPool(100, false)
	p.Reserve(3)
	for i := 0; i < 3; i++ {
		p.PutCongested(proto.Flit{Seq: uint8(i), Size: 3})
	}
	if p.RetrLen() != 3 {
		t.Fatalf("retrQ %d", p.RetrLen())
	}
	for i := 0; i < 3; i++ {
		if f := p.RetrPop(); int(f.Seq) != i {
			t.Fatalf("retrieval out of order: %d", f.Seq)
		}
	}
	if p.Used() != 0 {
		t.Fatalf("used %d after retrieval", p.Used())
	}
}

// TestStashPoolRetainAndRetransmit: a retained payload is a list of the
// shared flit pool, read in place by a retransmission, and every slot it
// and its retransmitted flits took is free again once the copy is deleted
// or its bank fails.
func TestStashPoolRetainAndRetransmit(t *testing.T) {
	flits := new(FlitPool)
	p := NewStashPoolIn(flits, 100, true)
	q := NewStashPoolIn(flits, 100, true)
	p.Reserve(2)
	p.PutCopy(proto.Flit{PktID: 5, Size: 2, Seq: 0, Flags: proto.FlagStashCopy})
	p.PutCopy(proto.Flit{PktID: 5, Size: 2, Seq: 1, Flags: proto.FlagStashCopy})
	l, ok := p.Retained(5)
	if !ok || l.Len() != 2 {
		t.Fatalf("Retained: %d flits, %v", l.Len(), ok)
	}
	if flits.InUse() != 2 {
		t.Fatalf("%d slots in use for a 2-flit payload", flits.InUse())
	}
	// Space stays committed; re-queue for retransmission by value.
	used := p.Used()
	for k, i := 0, l.Head(); k < l.Len(); k, i = k+1, flits.Next(i) {
		if f := flits.Get(i); int(f.Seq) != k {
			t.Fatalf("payload flit %d has seq %d", k, f.Seq)
		}
		p.PushRetr(*flits.Get(i))
	}
	for i := 0; i < l.Len(); i++ {
		f := p.RetrPop()
		if f.Flags&proto.FlagStashCopy != 0 {
			t.Fatal("retransmit flit kept stash-copy flag")
		}
	}
	if p.Used() != used {
		t.Fatal("retransmission released store space")
	}
	if l2, ok := p.Retained(5); !ok || l2 != l || flits.InUse() != 2 {
		t.Fatalf("retransmission moved the payload: %v, %d slots in use", ok, flits.InUse())
	}
	p.Delete(5, 2)
	if p.Used() != 0 {
		t.Fatal("delete after retransmit did not free")
	}
	if flits.InUse() != 0 {
		t.Fatalf("%d slots in use after delete", flits.InUse())
	}
	// A bank failure frees the slots of stored and filling payloads; the
	// other bank's payload keeps its own.
	storeCopy(p, 8, 3)
	storeCopy(q, 9, 2)
	p.Reserve(4)
	p.PutCopy(proto.Flit{PktID: 10, Size: 4, Seq: 0})
	p.FailBank()
	if flits.InUse() != 2 {
		t.Fatalf("%d slots in use after the bank failed, want the other bank's 2", flits.InUse())
	}
	for seq := 1; seq < 4; seq++ {
		p.PutCopy(proto.Flit{PktID: 10, Size: 4, Seq: uint8(seq)})
	}
	q.Delete(9, 2)
	if flits.InUse() != 0 {
		t.Fatalf("%d slots in use after the stragglers and the delete", flits.InUse())
	}
}

func TestStashPoolDeleteIdempotent(t *testing.T) {
	p := NewStashPool(100, false)
	p.Reserve(4)
	for i := 0; i < 4; i++ {
		p.PutCopy(proto.Flit{PktID: 7, Size: 4, Seq: uint8(i)})
	}
	if !p.Live(7) {
		t.Fatal("completed copy not live")
	}
	p.Delete(7, 4)
	// A racing second delete (duplicate ACK, or sideband delete arriving
	// after a bank failure already freed the copy) must be a no-op, not an
	// underflow panic.
	p.Delete(7, 4)
	if p.Used() != 0 || p.Free() != 100 || p.Live(7) {
		t.Fatalf("pool state after double delete: used %d free %d", p.Used(), p.Free())
	}
}

func TestStashPoolFailBankCompleted(t *testing.T) {
	for _, retain := range []bool{false, true} {
		p := NewStashPool(100, retain)
		p.Reserve(3)
		for i := 0; i < 3; i++ {
			p.PutCopy(proto.Flit{PktID: 11, Size: 3, Seq: uint8(i)})
		}
		p.Reserve(2)
		for i := 0; i < 2; i++ {
			p.PutCopy(proto.Flit{PktID: 4, Size: 2, Seq: uint8(i)})
		}
		lost := p.FailBank()
		if len(lost) != 2 || lost[0] != 4 || lost[1] != 11 {
			t.Fatalf("retain=%v: lost %v, want [4 11] ascending", retain, lost)
		}
		if p.Used() != 0 || p.Free() != 100 {
			t.Fatalf("retain=%v: space not freed: used %d", retain, p.Used())
		}
		if retain {
			if _, ok := p.Retained(11); ok {
				t.Fatal("failed bank still serves retained payload")
			}
		}
		// The later sideband delete for the lost copy must be a no-op.
		p.Delete(11, 3)
		if p.Used() != 0 {
			t.Fatalf("retain=%v: delete after failure moved occupancy", retain)
		}
	}
}

func TestStashPoolFailBankPartial(t *testing.T) {
	p := NewStashPool(100, true)
	p.Reserve(4)
	p.PutCopy(proto.Flit{PktID: 21, Size: 4, Seq: 0})
	p.PutCopy(proto.Flit{PktID: 21, Size: 4, Seq: 1})
	lost := p.FailBank()
	if len(lost) != 1 || lost[0] != 21 {
		t.Fatalf("lost %v, want [21]", lost)
	}
	// Two flits were resident (now freed); two still hold reservations.
	if p.Used() != 2 || p.Reserved() != 2 {
		t.Fatalf("used %d reserved %d after partial failure", p.Used(), p.Reserved())
	}
	// The stragglers arrive: each reservation converts to freed space, and
	// the copy never reports completion.
	if p.PutCopy(proto.Flit{PktID: 21, Size: 4, Seq: 2}) {
		t.Fatal("dead copy reported completion")
	}
	if p.PutCopy(proto.Flit{PktID: 21, Size: 4, Seq: 3}) {
		t.Fatal("dead copy reported completion at tail")
	}
	if p.Used() != 0 || p.Free() != 100 || p.Live(21) {
		t.Fatalf("pool not clean after stragglers: used %d free %d", p.Used(), p.Free())
	}
	if p.FreedFlits() != 4 {
		t.Fatalf("freed %d flits, want 4", p.FreedFlits())
	}
	// A fresh copy of the same packet (endpoint retransmission) stores
	// normally afterwards.
	p.Reserve(4)
	done := false
	for i := 0; i < 4; i++ {
		done = p.PutCopy(proto.Flit{PktID: 21, Size: 4, Seq: uint8(i)})
	}
	if !done || !p.Live(21) {
		t.Fatal("re-stash after bank failure broken")
	}
}

// TestStashPoolInterleavedCopyPanics: the storage-VC lock admits one
// packet at a time, so a copy flit of another packet while one is filling
// is a flow-control bug.
func TestStashPoolInterleavedCopyPanics(t *testing.T) {
	p := NewStashPool(100, true)
	p.Reserve(2)
	p.Reserve(2)
	p.PutCopy(proto.Flit{PktID: 1, Size: 2, Seq: 0})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "interleaved") {
			t.Fatalf("recovered %v, want the interleaving panic", r)
		}
	}()
	p.PutCopy(proto.Flit{PktID: 2, Size: 2, Seq: 0})
}

func decodePool(data []byte, p *StashPool) error {
	c, err := snapshot.NewDecoder(data)
	if err != nil {
		return err
	}
	p.State(c)
	return c.Close()
}

// TestStashPoolFillWalk: a pool caught mid-fill writes the fill record,
// restores it into a fresh pool that writes the same bytes, and the
// restored pool completes the copy as the original would.
func TestStashPoolFillWalk(t *testing.T) {
	for _, retain := range []bool{false, true} {
		p := NewStashPool(100, retain)
		storeCopy(p, 3, 2)
		p.Reserve(4)
		p.PutCopy(proto.Flit{PktID: 5, Size: 4, Seq: 0})
		p.PutCopy(proto.Flit{PktID: 5, Size: 4, Seq: 1})
		data := snapshot.Encode(p.State)
		q := NewStashPool(100, retain)
		if err := decodePool(data, q); err != nil {
			t.Fatalf("retain=%v: restoring a pool mid-fill: %v", retain, err)
		}
		if !bytes.Equal(snapshot.Encode(q.State), data) {
			t.Fatalf("retain=%v: the restored pool writes different bytes", retain)
		}
		done := false
		for seq := 2; seq < 4; seq++ {
			done = q.PutCopy(proto.Flit{PktID: 5, Size: 4, Seq: uint8(seq)})
		}
		if !done || !q.Live(5) {
			t.Fatalf("retain=%v: the restored fill did not complete", retain)
		}
		if l, ok := q.Retained(5); retain && (!ok || l.Len() != 4) {
			t.Fatalf("retain=%v: completed payload of %d flits, %v", retain, l.Len(), ok)
		}
	}
}

// TestStashPoolRestoreRefusesTwoFills: the stream keeps the fill record as
// a ledger keyed by packet ID, so a damaged one can name two copies
// filling one pool; Restore refuses it by name instead of restoring one.
func TestStashPoolRestoreRefusesTwoFills(t *testing.T) {
	data := snapshot.Encode(func(c *snapshot.Codec) {
		c.Section("STSH")
		for i := 0; i < 6; i++ {
			var zero int64
			c.I64(&zero) // reserved, used, parity, retrCopies, freed, PeakUsed
		}
		two := map[uint64]uint8{5: 1, 6: 1}
		snapshot.Map(c, &two, 9, c.U64, c.U8)
		for i := 0; i < 4; i++ {
			c.Count(0, 1) // copies, dead, the filling payload, retrQ
		}
	})
	err := decodePool(data, NewStashPool(100, false))
	if err == nil || !strings.Contains(err.Error(), "snapshot: StashPool filling copies = 2 ") {
		t.Fatalf("restoring two filling copies: %v, want the filling-copies refusal", err)
	}
}

// TestStashPoolRestoreRefusesPayloadSize: a live copy travels as its size
// and, when payloads are retained, its payload; Restore refuses a payload
// whose length is not the copy's size, naming its offset.
func TestStashPoolRestoreRefusesPayloadSize(t *testing.T) {
	p := NewStashPool(100, true)
	storeCopy(p, 5, 3)
	c := p.copies[5]
	c.size = 2
	p.copies[5] = c
	err := decodePool(snapshot.Encode(p.State), NewStashPool(100, true))
	if err == nil || !strings.Contains(err.Error(), "snapshot: stash pool: the retained payload at offset ") ||
		!strings.Contains(err.Error(), "holds 3 flits, its copy 2") {
		t.Fatalf("restoring a 3-flit payload of a 2-flit copy: %v, want the payload-size refusal", err)
	}
}

func TestStashPoolOverReservePanics(t *testing.T) {
	p := NewStashPool(10, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Reserve(11)
}

func TestBankedMemIdeal(t *testing.T) {
	m := BankedMem{Ideal: true}
	for i := 0; i < 10; i++ {
		if !m.Request(1, ReadNormal) || !m.Request(1, WriteStash) {
			t.Fatal("ideal memory denied access")
		}
	}
	if m.Conflicts != 0 {
		t.Fatal("ideal memory recorded conflicts")
	}
}

func TestBankedMemTwoAccessesPerCycle(t *testing.T) {
	var m BankedMem
	granted := 0
	if m.Request(5, ReadNormal) {
		granted++
	}
	if m.Request(5, ReadStash) {
		granted++
	}
	if m.Request(5, WriteNormal) {
		granted++
	}
	if granted > 2 {
		t.Fatalf("granted %d accesses in one cycle with two banks", granted)
	}
	if granted < 2 {
		t.Fatalf("granted only %d; banks underused", granted)
	}
	// Next cycle the denied stream must eventually proceed.
	if !m.Request(6, WriteNormal) {
		t.Fatal("stalled write not granted next cycle")
	}
}

func TestBankedMemSequentialStreamAlternates(t *testing.T) {
	var m BankedMem
	// A lone stream reading one flit per cycle never conflicts.
	for c := int64(0); c < 100; c++ {
		if !m.Request(c, ReadNormal) {
			t.Fatal("lone stream stalled")
		}
	}
	if m.Conflicts != 0 {
		t.Fatalf("%d conflicts for a lone stream", m.Conflicts)
	}
}

func TestBankedMemWriteAvoidance(t *testing.T) {
	var m BankedMem
	// Read takes its bank; a write whose preferred bank collides may
	// start on the other bank instead ("order of availability").
	m.parity[ReadNormal] = 0
	m.parity[WriteNormal] = 0
	if !m.Request(7, ReadNormal) {
		t.Fatal("read denied")
	}
	if !m.Request(7, WriteNormal) {
		t.Fatal("write should divert to the free bank")
	}
}
