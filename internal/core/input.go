package core

import (
	"math/bits"

	"stashsim/internal/buffer"
	"stashsim/internal/metrics"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
)

// tileAt returns the tile at (row, col).
//
//stashsim:noalloc
func (s *Switch) tileAt(row, col int) *tile {
	return &s.tiles[row*s.cfg.Cols+col]
}

// linkTile enqueues the flit in slot i of the switch's flit pool into a
// tile's row buffer for the given input slot and stream, marking the tile
// in the switch's active-set mask. Row
// buffers are indexed by the *arrival* stream (the VC the packet occupied
// in the input buffer, or the S/R internal streams), never by the outgoing
// VC: two packets from one input port on different arrival VCs may share an
// outgoing VC (an ejecting packet keeps its arrival VC while a transit
// packet is upgraded), and indexing by outgoing VC would interleave them in
// one FIFO and corrupt the wormhole.
//
//stashsim:noalloc
func (s *Switch) linkTile(t *tile, i int32, slot, stream int) {
	t.rowBufs[slot][stream].Link(&s.pools.flits, i)
	t.slotOcc[slot] |= 1 << uint(stream)
	t.occupied++
	s.tileOcc |= 1 << uint(t.row*s.cfg.Cols+t.col)
}

// rowBufSpace reports whether the row buffer at (row, col, slot, stream)
// can accept one more flit.
//
//stashsim:noalloc
func (s *Switch) rowBufSpace(row, col, slot, stream int) bool {
	return s.tileAt(row, col).rowBufs[slot][stream].Len() < rowBufFlits
}

// stepArrivals moves flits that have arrived on the input link into the
// input buffer: the link's flits sit in the switch's own pool, so each
// arrival relinks its slot. Space is guaranteed by upstream credits; the
// only possible stall is a bank conflict on the port memory write.
//
//stashsim:noalloc
func (s *Switch) stepArrivals(now sim.Tick, p *inPort) {
	l := p.link
	for l.flits.FrontDue(now) && p.mem.Request(now, buffer.WriteNormal) {
		p.buf.Link(l.flits.Unlink(l.fp))
	}
}

// stepRowBus performs one input port's row-bus cycle: update the ECN
// congested state, route newly-exposed head packets, evaluate the stash
// decisions of Section IV, arbitrate among the input VCs and the stash
// retrieval queue, and move the winning flit (plus its multi-drop stash
// duplicate, when end-to-end reliability is active) into row buffers.
//
//stashsim:noalloc
func (s *Switch) stepRowBus(now sim.Tick, p *inPort) {
	cfg := s.cfg
	if cfg.ECN.Enabled {
		p.congested = p.buf.Used() > p.congestAt
		if p.congested {
			s.Counters.CongestedCycles++
		}
	}
	pool := s.stash[p.id]
	hasRetr := pool.RetrLen() > 0
	occ := p.buf.Occupied()
	if occ == 0 && !hasRetr {
		return
	}

	row := cfg.RowOf(p.id)
	slot := cfg.SlotOf(p.id)
	var req uint64 // bit vc: input VC vc; bit NumNetVCs: the retrieval queue
	for m := occ; m != 0; m &= m - 1 {
		vc := bits.TrailingZeros32(m)
		f := p.buf.Front(vc)
		lt := &p.latch[vc]
		if !lt.active {
			if !f.Head() {
				panic("core: non-head flit at idle input VC")
			}
			dec := s.router.Route(f, s.ID, s)
			s.tracer.Record(now, metrics.EvRoute, f.PktID, int32(s.ID), int32(dec.Out), f.Src, f.Dst)
			ivc := dec.NextVC
			if dec.Eject {
				// Ejecting packets keep their arrival VC through the
				// switch internals so packets from different arrival
				// VCs never interleave in one internal queue.
				ivc = f.VC
			}
			f.Phase = dec.Phase
			f.MidGroup = dec.MidGroup
			if dec.NonMinimal {
				f.Flags |= proto.FlagNonMinimal
			}
			*lt = routeLatch{
				active:   true,
				eject:    dec.Eject,
				out:      uint8(dec.Out),
				vc:       ivc,
				stashCol: -1,
			}
		}

		ok := false
		if lt.started {
			if lt.redirect {
				ok = s.rowBufSpace(row, int(lt.stashCol), slot, proto.VCStore)
			} else {
				ok = s.rowBufSpace(row, cfg.ColOf(int(lt.out)), slot, vc)
				if ok && lt.stashCol >= 0 {
					ok = s.rowBufSpace(row, int(lt.stashCol), slot, proto.VCStore)
				}
			}
		} else {
			// Head flit: (re)evaluate the stash decision this cycle.
			lt.stashCol = -1
			lt.redirect = false
			normalOK := s.rowBufSpace(row, cfg.ColOf(int(lt.out)), slot, vc)
			// The storage stream of this input's row buffers is a
			// single FIFO; only one input VC may hold it at a time
			// (wormhole), or stash packets from different VCs would
			// interleave and wedge the tile locks.
			sFree := p.sVC == -1 || p.sVC == int8(vc)
			switch {
			case cfg.Mode == StashE2E && p.isEnd && f.Kind == proto.Data:
				if s.track.Get(f.PktID) != nil {
					// A source retransmission of a packet whose tracking
					// entry is still live (its stash copy covers it, or
					// the entry is marked lost awaiting abandonment):
					// forward without minting a second copy, or the pool
					// would leak one reservation per duplicate.
					ok = normalOK
					break
				}
				// Section IV-A: the packet advances only when both the
				// normal path and a storage path are unblocked.
				col, found := s.jsqColumn(row, slot, int(f.Size))
				if !found {
					if cfg.StashBypass {
						// Graceful degradation: forward uncovered; the
						// source endpoint's timer is the packet's only
						// recovery. Counted per packet in moveFromInput.
						ok = normalOK
						break
					}
					s.Counters.StashFullStalls++
				} else if normalOK && sFree {
					lt.stashCol = int8(col)
					ok = true
				}
			case cfg.Mode == StashCongestion && p.congested && lt.eject &&
				f.Kind == proto.Data && !normalOK && sFree:
				// Section IV-B: all four stash conditions hold —
				// congested input, destined to an end port, blocked on
				// the normal VC, storage path available.
				if col, found := s.jsqColumn(row, slot, int(f.Size)); found {
					lt.stashCol = int8(col)
					lt.redirect = true
					ok = true
				}
			default:
				ok = normalOK
			}
		}
		if ok {
			req |= 1 << uint(vc)
		}
	}
	if hasRetr {
		f := pool.RetrFront()
		if s.rowBufSpace(row, cfg.ColOf(int(f.OrigOut)), slot, proto.VCRetrieve) {
			req |= 1 << proto.NumNetVCs
		}
	}
	if req == 0 {
		return
	}
	w := p.arbiter.GrantMask(req)
	if w == proto.NumNetVCs {
		// Stash retrieval shares the row bus with normal input traffic.
		// The stored flits live in the port's output-side memory (they
		// arrived through the output multiplexer), so the retrieval read
		// contends there with the transmission read — this is the
		// four-port scenario the two-bank organization of Section III-B
		// resolves.
		if !s.out[p.id].mem.Request(now, buffer.ReadStash) {
			// Busy-bank conflict. With parity groups, a read of a member
			// of a sealed group is served degraded instead: the flit is
			// reconstructed by XOR of the k-1 survivors + parity sitting
			// in other (idle) banks — Cohen & Cassuto's coded-read case.
			// The survivors' bank budgets are not charged; the model
			// claims only that the conflicted bank is not touched.
			if s.parity == nil || !s.parity.CanServeDegraded(pool.RetrFront().PktID) {
				return
			}
			s.Counters.StashDegradedReads++
		}
		i := pool.UnlinkRetr()
		f := s.pools.flits.Get(i)
		s.Counters.StashRetrieves++
		if f.Head() {
			s.tracer.Record(now, metrics.EvStashRetrieve, f.PktID, int32(s.ID), int32(p.id), f.Src, f.Dst)
		}
		f.VC = proto.VCRetrieve
		f.Out = f.OrigOut
		s.linkTile(s.tileAt(row, cfg.ColOf(int(f.Out))), i, slot, proto.VCRetrieve)
		return
	}
	if !p.mem.Request(now, buffer.ReadNormal) {
		return
	}
	s.moveFromInput(now, p, w, row, slot)
}

// moveFromInput transfers the winning VC's front flit across the row bus
// — its slot moves from the input buffer to a row buffer, and the flit is
// restamped in place — returning a credit upstream, applying ECN marking,
// and exploiting the row bus's multi-drop broadcast to deposit the
// end-to-end stash duplicate in the same cycle.
//
//stashsim:noalloc
func (s *Switch) moveFromInput(now sim.Tick, p *inPort, vc, row, slot int) {
	cfg := s.cfg
	lt := &p.latch[vc]
	i, credit := p.buf.Unlink(vc)
	f := s.pools.flits.Get(i)
	p.link.SendCredit(now, credit)
	s.Counters.FlitsSwitched++
	if cfg.ECN.Enabled && p.congested && f.Kind == proto.Data && f.Head() {
		f.Flags |= proto.FlagECN
		s.Counters.ECNMarks++
	}
	if lt.redirect {
		// Congestion stashing: the whole packet is absorbed on the
		// storage VC; its intended output and VC travel along for the
		// later retrieval.
		if f.Head() {
			s.Counters.HoLAbsorbed++
			s.tally.jsqPick[lt.stashCol]++
		}
		f.OrigOut = lt.out
		f.RestoreVC = lt.vc
		f.Out = proto.OutPending // decided by JSQ at the tile
		f.VC = proto.VCStore
		s.linkTile(s.tileAt(row, int(lt.stashCol)), i, slot, proto.VCStore)
	} else {
		var cp proto.Flit
		if lt.stashCol >= 0 {
			cp = *f
		}
		f.Out = lt.out
		f.VC = lt.vc
		s.linkTile(s.tileAt(row, cfg.ColOf(int(lt.out))), i, slot, vc)
		if lt.stashCol >= 0 {
			// Multi-drop broadcast: the stash copy rides the same bus
			// cycle into a second tile's storage VC.
			cp.Flags |= proto.FlagStashCopy
			cp.Out = proto.OutPending
			cp.VC = proto.VCStore
			s.created++
			s.linkTile(s.tileAt(row, int(lt.stashCol)), s.pools.flits.Put(cp), slot, proto.VCStore)
			if f.Head() {
				e := s.track.Add(f.PktID)
				e.size = f.Size
				e.port = uint8(p.id)
				e.stashPort = -1
				if cfg.Retrans.Enabled {
					s.track.Arm(now, f.PktID, e)
				}
				s.Counters.E2ETracked++
				s.tally.jsqPick[lt.stashCol]++
			}
		} else if cfg.Mode == StashE2E && p.isEnd && f.Kind == proto.Data &&
			f.Head() && s.track.Get(f.PktID) == nil {
			// Bypass: an untracked data packet advanced without a stash
			// copy (StashBypass on a full stash).
			s.Counters.StashBypassed++
		}
	}
	if lt.redirect || lt.stashCol >= 0 {
		if f.Tail() {
			p.sVC = -1
		} else {
			p.sVC = int8(vc)
		}
	}
	if f.Tail() {
		lt.active = false
	} else {
		lt.started = true
	}
}

// jsqColumn implements the first stage of join-shortest-queue stash path
// selection (Section III-A): among the tile columns reachable from this
// input's row whose storage-VC row buffer has space, pick the one whose
// best port has the most free stash capacity, requiring at least size
// flits. Ports without stash buffers are statically omitted.
//
//stashsim:noalloc
func (s *Switch) jsqColumn(row, slot, size int) (int, bool) {
	cfg := s.cfg
	if cfg.RandomStashPlacement {
		// Ablation: uniform choice among feasible columns.
		feasible := 0
		pick := -1
		for c := 0; c < cfg.Cols; c++ {
			if !s.rowBufSpace(row, c, slot, proto.VCStore) || s.bestStashInColumn(c) < size {
				continue
			}
			feasible++
			if s.rng.Intn(feasible) == 0 {
				pick = c
			}
		}
		return pick, pick >= 0
	}
	bestCol, bestFree := -1, size-1
	for c := 0; c < cfg.Cols; c++ {
		if !s.rowBufSpace(row, c, slot, proto.VCStore) {
			continue
		}
		free := s.bestStashInColumn(c)
		if free > bestFree {
			bestFree = free
			bestCol = c
		}
	}
	return bestCol, bestCol >= 0
}

// bestStashInColumn returns the largest free stash capacity among the
// output ports served by tile column c.
//
//stashsim:noalloc
func (s *Switch) bestStashInColumn(c int) int {
	cfg := s.cfg
	best := 0
	lo := c * cfg.TileOut
	hi := lo + cfg.TileOut
	if hi > s.radix {
		hi = s.radix
	}
	for q := lo; q < hi; q++ {
		if s.stash[q].Capacity() == 0 {
			continue
		}
		if free := s.stash[q].Free(); free > best {
			best = free
		}
	}
	return best
}
