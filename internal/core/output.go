package core

import (
	"math/bits"

	"stashsim/internal/buffer"
	"stashsim/internal/metrics"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/topo"
)

// effVC returns the output-buffer VC a column-buffer flit is heading to:
// retrieval flits are returned to their original VC after the multiplexer
// (Section III-A); everything else keeps its VC.
//
//stashsim:noalloc
func effVC(f *proto.Flit) int {
	if f.VC == proto.VCRetrieve {
		return int(f.RestoreVC)
	}
	return int(f.VC)
}

// stepMux performs one output-multiplexer cycle: round-robin among the
// (row, VC) column buffer heads, moving one flit into the output buffer or
// — for storage-VC flits — into the port's stash pool.
//
//stashsim:noalloc
func (s *Switch) stepMux(now sim.Tick, op *outPort) {
	if op.colOcc == 0 {
		return
	}
	cfg := s.cfg
	n := cfg.Rows * proto.NumVCs
	a := &op.muxArb
	start := a.Next()
	// Walk only the non-empty column buffers, in round-robin order from the
	// arbiter pointer: rotate the occupancy mask so bit k stands for index
	// (start+k) mod n, then peel set bits. Visiting order is identical to
	// the full scan, so arbitration outcomes are unchanged.
	rot := op.colMask >> uint(start)
	if start > 0 {
		rot |= op.colMask << uint(n-start)
	}
	if n < 64 {
		rot &= uint64(1)<<uint(n) - 1
	}
	for ; rot != 0; rot &= rot - 1 {
		idx := start + bits.TrailingZeros64(rot)
		if idx >= n {
			idx -= n
		}
		row := idx / proto.NumVCs
		vc := idx % proto.NumVCs
		rb := &op.colBufs[row][vc]
		f := rb.Front()
		ev := effVC(f)
		lk := &op.muxLock[ev]
		if f.Head() {
			if lk.active {
				continue
			}
		} else if !lk.active || lk.pkt != f.PktID || lk.row != int8(row) {
			continue
		}
		if vc == proto.VCStore {
			// Stash arrival: pool space was reserved at the tile.
			if !op.mem.Request(now, buffer.WriteStash) {
				continue
			}
		} else {
			if op.buf.Free() <= 0 {
				continue
			}
			if !op.mem.Request(now, buffer.WriteNormal) {
				continue
			}
		}
		// Grant.
		ff := rb.Pop()
		op.colOcc--
		if op.colOcc == 0 {
			s.muxOcc &^= 1 << uint(op.id)
		}
		if rb.Empty() {
			op.colMask &^= 1 << uint(idx)
		}
		if ff.Head() {
			lk.row, lk.pkt, lk.active = int8(row), ff.PktID, true
		}
		if ff.Tail() {
			lk.active = false
		}
		a.Advance(idx)
		if vc == proto.VCStore {
			s.stashArrival(now, op, ff)
		} else {
			if ff.VC == proto.VCRetrieve {
				ff.VC = ff.RestoreVC
			}
			op.buf.Push(ff)
			s.outActive |= 1 << uint(op.id)
		}
		return
	}
}

// stashArrival deposits one storage-VC flit into the port's stash pool.
// Completed end-to-end copies trigger the side-band location message back
// to the originating end port.
//
//stashsim:noalloc
func (s *Switch) stashArrival(now sim.Tick, op *outPort, f proto.Flit) {
	pool := s.stash[op.id]
	s.Counters.StashStores++
	if f.Head() {
		s.tracer.Record(now, metrics.EvStashStore, f.PktID, int32(s.ID), int32(op.id), f.Src, f.Dst)
	}
	if f.Flags&proto.FlagStashCopy != 0 {
		if pool.PutCopy(f) {
			if s.parity != nil {
				// The completed copy enrolls into a parity group; filling
				// one mints its XOR parity flit run in another bank.
				s.noteSealed(s.parity.OnStore(f.PktID, f.Size, op.id))
			}
			origin := int(f.Src) % s.cfg.Topo.P
			s.sbSend(now, sbLocation, f.PktID, uint8(origin), uint8(op.id), f.Size)
		}
		return
	}
	pool.PutCongested(f)
	// The flit is now queued for retrieval over the port's row bus.
	s.inActive |= 1 << uint(op.id)
	if f.Head() {
		s.Counters.CongStashed++
		if f.Class == proto.ClassVictim {
			s.Counters.CongStashedVict++
		}
	}
}

// stepOutput performs one output-port cycle: release flits whose
// link-level retention window has passed and — when the serialization
// accumulator allows — transmit one flit, observing end-to-end ACKs at end
// ports on the way out. Returned credits are folded into the counter by the
// credit walk in Switch.Step (RecvCreditsInto) before this runs.
//
// Active-set scheduling may skip an idle port for whole stretches of
// cycles, so the serialization accumulator advances by formula rather than
// by per-cycle increment: each elapsed cycle would have added RateNum while
// acc was below RateDen, and the closed form reproduces that exactly (an
// idle port cannot have sent, so no cycle in the gap decremented acc).
//
//stashsim:noalloc
func (s *Switch) stepOutput(now sim.Tick, op *outPort) {
	cfg := s.cfg
	op.buf.Release(now)
	elapsed := now - op.accTick
	op.accTick = now
	if op.acc < cfg.RateDen {
		need := int64((cfg.RateDen - op.acc + cfg.RateNum - 1) / cfg.RateNum)
		if elapsed > need {
			elapsed = need
		}
		op.acc += int(elapsed) * cfg.RateNum
	}
	if op.acc < cfg.RateDen {
		return
	}
	req := uint64(op.buf.Occupied())
	if req == 0 {
		return
	}
	if op.credited {
		for m := req; m != 0; m &= m - 1 {
			if vc := bits.TrailingZeros64(m); op.credits.Avail(vc) <= 0 {
				req &^= 1 << uint(vc)
			}
		}
	}
	if req == 0 {
		// Flits are queued but every occupied VC is blocked on downstream
		// credits: a credit-stall cycle on this output.
		s.CreditStallCycles++
		return
	}
	vc := op.sendArb.GrantMask(req)
	if !op.mem.Request(now, buffer.ReadNormal) {
		return
	}
	f := op.buf.Send(vc, now+op.rtt)
	if op.credited {
		op.credits.Take(&f)
	}
	if op.isEnd && cfg.Mode == StashE2E && f.Kind == proto.ACK && f.Head() {
		s.e2eOnAck(now, op.id, &f)
	}
	if op.class != topo.Endpoint {
		f.Hops++
	}
	op.link.SendFlit(now, f)
	op.acc -= cfg.RateDen
	s.Counters.FlitsSent++
}
