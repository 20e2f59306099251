package core

import (
	"math/bits"

	"stashsim/internal/proto"
	"stashsim/internal/sim"
)

// stepTile performs one tile crossbar cycle: collect per-(slot, output)
// candidate streams, run the separable output-first allocator, and move
// the granted flits from row buffers to column buffers.
//
// Row buffers are indexed by arrival stream; the flit's VC field carries
// the internal/outgoing VC, which keys the per-(tile output, VC) wormhole
// locks and the column buffers. Storage-VC head flits perform the second
// join-shortest-queue stage here, choosing the column channel (and thus
// the stash port) with the most free storage credits, and reserve a full
// packet of pool space on grant.
//
//stashsim:noalloc
func (s *Switch) stepTile(now sim.Tick, t *tile) {
	if t.occupied == 0 {
		return
	}
	cfg := s.cfg
	for slot := 0; slot < cfg.TileIn; slot++ {
		t.reqScr[slot] = 0
		occ := uint(t.slotOcc[slot])
		if occ == 0 {
			continue
		}
		cand := t.candScr[slot*cfg.TileOut:]
		// Walk the occupied streams in rotation from the slot's pointer:
		// rotate the occupancy so bit k stands for stream (base+k) mod
		// NumVCs, then peel set bits.
		base := int(t.vcNext[slot])
		for rot := (occ>>uint(base) | occ<<uint(proto.NumVCs-base)) & (1<<proto.NumVCs - 1); rot != 0; rot &= rot - 1 {
			stream := base + bits.TrailingZeros(rot)
			if stream >= proto.NumVCs {
				stream -= proto.NumVCs
			}
			f := t.rowBufs[slot][stream].Front(&s.pools.flits)
			var port int
			if stream == proto.VCStore {
				sl := &t.sLatch[slot]
				if sl.active {
					port = int(sl.port)
				} else {
					if !f.Head() {
						panic("core: storage-VC body flit without latch")
					}
					pp, ok := s.jsqPort(t, int(f.Size))
					if !ok {
						continue
					}
					port = pp
				}
			} else {
				port = int(f.Out)
			}
			o := int(s.tileOutOf[port])
			if t.reqScr[slot]&(1<<uint(o)) != 0 {
				continue // an earlier stream in rotation already requests o
			}
			vc := int(f.VC)
			if held := t.outLock[o]&(1<<vc) != 0; held == f.Head() {
				continue // a head waits for the lock; a body flit's packet holds it
			}
			if s.out[port].colBufs[t.row][vc].Len() >= colBufFlits {
				continue
			}
			cand[o] = uint8(stream)
			t.reqScr[slot] |= 1 << uint(o)
		}
	}
	grants := t.alloc.Allocate(t.reqScr)
	for o, slot := range grants {
		if slot < 0 {
			continue
		}
		t.grants++
		s.tally.colFlits++
		stream := int(t.candScr[slot*cfg.TileOut+o])
		switch stream {
		case proto.VCStore:
			s.tally.svcFlits++
		case proto.VCRetrieve:
			s.tally.rvcFlits++
		}
		rb := &t.rowBufs[slot][stream]
		i := rb.Unlink(&s.pools.flits)
		f := s.pools.flits.Get(i)
		if rb.Empty() {
			t.slotOcc[slot] &^= 1 << uint(stream)
		}
		t.occupied--
		port := t.col*cfg.TileOut + o
		if stream == proto.VCStore {
			sl := &t.sLatch[slot]
			if f.Head() {
				s.stash[port].Reserve(int(f.Size))
				sl.port, sl.active = uint8(port), true
			}
			f.Out = uint8(port)
			if f.Tail() {
				sl.active = false
			}
		}
		if f.Head() {
			t.outLock[o] |= 1 << f.VC
		}
		if f.Tail() {
			t.outLock[o] &^= 1 << f.VC
		}
		s.linkCol(&s.out[port], t.row, i)
		if stream+1 == proto.NumVCs {
			t.vcNext[slot] = 0
		} else {
			t.vcNext[slot] = uint8(stream + 1)
		}
	}
	if t.occupied == 0 {
		s.tileOcc &^= 1 << uint(t.row*s.cfg.Cols+t.col)
	}
}

// linkCol enqueues the flit in slot i of the switch's flit pool, granted
// by a tile of the given row, into the output port's column buffer of its
// VC, marking the port in the switch's mux mask.
//
//stashsim:noalloc
func (s *Switch) linkCol(op *outPort, row int, i int32) {
	vc := int(s.pools.flits.Get(i).VC)
	op.colBufs[row][vc].Link(&s.pools.flits, i)
	op.colOcc++
	op.colMask |= 1 << uint(row*proto.NumVCs+vc)
	s.muxOcc |= 1 << uint(op.id)
}

// jsqPort is the second join-shortest-queue stage: among this tile
// column's output ports, pick the one with the most free stash capacity
// that can hold the whole packet and whose storage column channel is
// usable (lock free, column buffer space).
//
//stashsim:noalloc
func (s *Switch) jsqPort(t *tile, size int) (int, bool) {
	cfg := s.cfg
	bestPort, bestFree := -1, size-1
	feasible := 0
	lo := t.col * cfg.TileOut
	hi := lo + cfg.TileOut
	if hi > s.radix {
		hi = s.radix
	}
	for q := lo; q < hi; q++ {
		if s.stash[q].Capacity() == 0 {
			continue
		}
		if t.outLock[s.tileOutOf[q]]&(1<<proto.VCStore) != 0 {
			continue
		}
		if s.out[q].colBufs[t.row][proto.VCStore].Len() >= colBufFlits {
			continue
		}
		free := s.stash[q].Free()
		if free < size {
			continue
		}
		if cfg.RandomStashPlacement {
			// Ablation: reservoir-sample a feasible port uniformly.
			feasible++
			if s.rng.Intn(feasible) == 0 {
				bestPort = q
			}
			continue
		}
		if free > bestFree {
			bestFree = free
			bestPort = q
		}
	}
	return bestPort, bestPort >= 0
}
