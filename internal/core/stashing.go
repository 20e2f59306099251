package core

import (
	"stashsim/internal/buffer"
	"stashsim/internal/metrics"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
)

// The side-band network of Section IV-A: a dedicated low-bandwidth path
// carrying bookkeeping messages between the ports of one switch. Messages
// are small (packet tracking index, port numbers, stash buffer index) and
// experience a fixed latency. Because the latency is constant the queue is
// FIFO in delivery time.

type sbKind uint8

const (
	// sbLocation: stash port -> originating end port, reporting where a
	// completed end-to-end copy was stored.
	sbLocation sbKind = iota
	// sbDelete: end port -> stash port, freeing an acknowledged copy.
	sbDelete
	// sbRetransmit: end port -> stash port, requesting re-injection of a
	// NACKed packet's copy.
	sbRetransmit
)

// sbMsg is one message in flight on the side band, a TimedList in the
// group's side-band pool (Pools): its due cycle is the delivery cycle, and
// the side band's constant latency keeps those non-decreasing.
//
//stashsim:owner partition
type sbMsg struct {
	kind  sbKind
	pktID uint64
	dst   uint8 // destination port of the message
	aux   uint8 // location: stash port; others unused
	size  uint8
}

// sbSend enqueues a side-band message for delivery after the configured
// side-band latency.
//
//stashsim:noalloc
func (s *Switch) sbSend(now sim.Tick, kind sbKind, pktID uint64, dst, aux, size uint8) {
	s.sideband.Push(&s.pools.sideband, now+sidebandLat, sbMsg{kind: kind, pktID: pktID, dst: dst, aux: aux, size: size})
	s.Counters.SidebandMsgs++
}

// stepSideband delivers due side-band messages.
//
//stashsim:noalloc
func (s *Switch) stepSideband(now sim.Tick) {
	for {
		m, ok := s.sideband.PopDue(&s.pools.sideband, now)
		if !ok {
			return
		}
		switch m.kind {
		case sbLocation:
			s.onLocation(now, m)
		case sbDelete:
			if s.stash[m.dst].Delete(m.pktID, int(m.size)) && s.parity != nil {
				// The freed member leaves its parity group; freed space
				// may also let a deferred group seal.
				s.noteSealed(s.parity.OnDelete(m.pktID))
			}
		case sbRetransmit:
			s.retransmit(now, int(m.dst), m.pktID)
		}
	}
}

// onLocation processes a stash-location report at the originating end
// port, resolving any ACK/NACK that raced ahead of it (Section IV-A's
// "ACK could return before the location message" case).
//
//stashsim:noalloc
func (s *Switch) onLocation(now sim.Tick, m sbMsg) {
	e := s.track.Get(m.pktID)
	if e == nil {
		if s.cfg.Retrans.Enabled || s.cfg.FaultActive() {
			// The entry was abandoned (retry exhaustion) while the
			// location report was in flight: free the orphan copy.
			s.sbSend(now, sbDelete, m.pktID, m.aux, 0, m.size)
			return
		}
		panic("core: location message for untracked packet")
	}
	if e.lost {
		// The copy this report names was invalidated by a bank failure
		// while the report was in flight; recording its location would
		// resurrect a pointer into a dead pool.
		return
	}
	switch {
	case e.acked:
		s.sbSend(now, sbDelete, m.pktID, m.aux, 0, e.size)
		s.track.Drop(m.pktID, e)
		s.Counters.E2EDeletes++
	case e.nacked:
		e.stashPort = int16(m.aux)
		e.nacked = false
		s.sbSend(now, sbRetransmit, m.pktID, m.aux, m.dst, e.size)
	default:
		e.stashPort = int16(m.aux)
	}
}

// e2eOnAck handles an end-to-end ACK observed at the originating end port
// as it exits toward the source endpoint.
//
//stashsim:noalloc
func (s *Switch) e2eOnAck(now sim.Tick, port int, f *proto.Flit) {
	e := s.track.Get(f.PktID)
	if e == nil {
		// Duplicate ACK after completion (possible with
		// retransmissions); nothing left to do.
		return
	}
	if e.lost {
		// No stash copy remains. A positive ACK settles the entry with
		// nothing to free; a NACK leaves recovery to the source
		// endpoint's timer.
		if f.Flags&proto.FlagNack == 0 {
			s.track.Drop(f.PktID, e)
		}
		return
	}
	if f.Flags&proto.FlagNack != 0 {
		if s.cfg.Retrans.Enabled && !s.track.Retry(now, f.PktID, e) {
			s.abandonEntry(now, f.PktID, e) // the retry budget is spent
			return
		}
		if e.stashPort >= 0 {
			s.sbSend(now, sbRetransmit, f.PktID, uint8(e.stashPort), uint8(port), e.size)
		} else {
			e.nacked = true
		}
		return
	}
	if e.stashPort >= 0 {
		s.sbSend(now, sbDelete, f.PktID, uint8(e.stashPort), 0, e.size)
		s.track.Drop(f.PktID, e)
		s.Counters.E2EDeletes++
	} else {
		e.acked = true
	}
}

// abandonEntry gives up on local (stash) recovery of a tracked packet:
// the copy's space is freed and the tracking entry removed. The source
// endpoint's retransmission timer is now the packet's only cover.
//
//stashsim:noalloc
func (s *Switch) abandonEntry(now sim.Tick, pktID uint64, e *e2eEntry) {
	if e.stashPort >= 0 && !e.lost {
		s.sbSend(now, sbDelete, pktID, uint8(e.stashPort), 0, e.size)
	}
	s.track.Drop(pktID, e)
	s.Counters.RetryAbandoned++
}

// retryFired is what a due ACK timer does: a stash resend, re-armed with
// backoff, or — once the copy is lost or the retry budget spent — the
// entry's abandonment.
//
//stashsim:noalloc
func (s *Switch) retryFired(now sim.Tick, pktID uint64, e *e2eEntry) {
	s.Counters.RetryTimeouts++
	if e.lost || !s.track.Retry(now, pktID, e) {
		s.abandonEntry(now, pktID, e)
		return
	}
	if e.stashPort >= 0 {
		s.sbSend(now, sbRetransmit, pktID, uint8(e.stashPort), e.port, e.size)
	}
	// stashPort < 0: the location report is still in flight (it cannot be
	// lost — the side band is fault-free); the re-armed timer covers the
	// wait.
}

// noteSealed books what a parity-tracker call reports: minted parity flits
// enter the flit-conservation count, sealed groups the counters.
//
//stashsim:noalloc
func (s *Switch) noteSealed(minted, sealed int) {
	s.created += int64(minted)
	s.Counters.ParityGroupsSealed += int64(sealed)
}

// reconRec is one in-flight parity reconstruction: at due, the rebuilt
// copy — with its retained payload, a list in the switch's flit pool, when
// retention is on — lands in the target bank and a fresh location report
// heads to the originating end port, which the packet's tracking record
// names.
// Records are appended only by the serial fault hook (FailStashBank) and
// drained by Step, so the queue is partition-private like the tracking
// ledger.
//
//stashsim:owner partition
type reconRec struct {
	due     int64
	pktID   uint64
	size    uint8
	target  uint8           // bank receiving the rebuilt copy (space reserved)
	payload buffer.FlitList // retained payload extracted from the failed bank; may be empty
}

// FailStashBank injects a stash-bank failure at the given port. With
// parity groups enabled, the middle rung of the recovery ladder fires
// first: every completed copy in the failing bank that belongs to a
// sealed group — and still covers an unsettled tracked packet — is
// rebuilt from its k-1 survivors + parity into another bank, after a
// latency modeling the side-band reads. Everything else is invalidated
// and its tracking entry marked lost, degrading those packets to
// endpoint-timer recovery exactly as before. It returns the number of
// copies the failure destroyed (reconstructed or not) and how many of
// them were scheduled for reconstruction.
//
//stashsim:phase serial -- fault injection runs from the harness between cycles, never inside Step
func (s *Switch) FailStashBank(now sim.Tick, port int) (lost, reconstructed int) {
	wakeBy(s.wake, now) // reconQ and the tracking entries change under a sleeping switch
	pool := s.stash[port]
	if s.parity != nil {
		for _, pktID := range s.parity.FailCandidates(port) {
			e := s.track.Get(pktID)
			if e == nil || e.acked || e.lost || e.recon {
				continue // settled, already degraded, or rebuilding: nothing to protect
			}
			size, ok := pool.CopySize(pktID)
			if !ok {
				continue // membership implies a completed copy; defensive
			}
			target, ok := s.parity.PickTarget(pktID, int(size), port)
			if !ok {
				continue // no bank can hold the rebuild: degrade to endpoint recovery
			}
			payload, _ := pool.ExtractCopy(pktID)
			s.stash[target].Reserve(int(size))
			s.parity.BeginRecon(pktID)
			e.recon = true
			e.stashPort = -1
			// The rebuild reads the k-1 surviving members plus parity over
			// the side band: one side-band traversal plus a flit-serial XOR
			// pass over the survivors.
			due := now + sidebandLat + int64(s.cfg.StashParity-1)*int64(size)
			s.reconQ = append(s.reconQ, reconRec{
				due: due, pktID: pktID, size: size,
				target: uint8(target), payload: payload,
			})
			reconstructed++
		}
	}
	lostIDs := pool.FailBank()
	for _, pktID := range lostIDs {
		if s.parity != nil {
			minted, sealed, protected := s.parity.OnCopyLost(pktID)
			s.noteSealed(minted, sealed)
			if protected {
				s.Counters.StashReconFailed++
			}
		}
		e := s.track.Get(pktID)
		if e == nil {
			continue
		}
		if e.acked {
			// The ACK already settled delivery and was waiting for the
			// location report to free the copy; the failure freed it, so
			// the entry is complete.
			s.track.Drop(pktID, e)
		} else {
			e.lost = true
			e.stashPort = -1
		}
	}
	if s.parity != nil {
		// Space freed by the failure may let deferred groups seal; retried
		// only now so fresh parity was never placed into the failing bank.
		s.noteSealed(s.parity.RetrySeals())
	}
	lost = len(lostIDs) + reconstructed
	s.Counters.StashCopiesLost += int64(lost)
	s.Counters.StashReconstructed += int64(reconstructed)
	return lost, reconstructed
}

// stepRecon completes due parity reconstructions, compacting the queue in
// place (records are only appended between cycles by the serial fault
// hook, so the scan never races an insertion).
//
//stashsim:noalloc
func (s *Switch) stepRecon(now sim.Tick) {
	w := 0
	for i := 0; i < len(s.reconQ); i++ {
		rec := s.reconQ[i]
		if rec.due > now {
			s.reconQ[w] = rec
			w++
			continue
		}
		s.finishRecon(now, rec)
	}
	s.reconQ = s.reconQ[:w]
}

// finishRecon lands one rebuilt copy: the reservation converts into a
// live copy in the target bank, the copy re-enrolls into a fresh parity
// group, and a location report re-enters the normal ACK/delete machinery
// at the originating end port (any ACK/NACK that raced the rebuild is
// resolved there exactly like a raced location report). When the tracked
// entry settled — or was replaced by a fresh source retransmission —
// while the rebuild was in flight, the orphan copy is dropped instead.
//
//stashsim:noalloc
func (s *Switch) finishRecon(now sim.Tick, rec reconRec) {
	e := s.track.Get(rec.pktID)
	if e == nil || !e.recon {
		s.stash[rec.target].Unreserve(int(rec.size))
		rec.payload.Reset(&s.pools.flits)
		return
	}
	e.recon = false
	s.stash[rec.target].InstallCopy(rec.pktID, int(rec.size), rec.payload)
	s.created += int64(rec.size)
	s.noteSealed(s.parity.OnStore(rec.pktID, rec.size, int(rec.target)))
	s.sbSend(now, sbLocation, rec.pktID, e.port, rec.target, rec.size)
}

// retransmit re-injects a retained stash copy into the network from the
// stash port holding it (error-injection extension; the paper identifies
// the mechanism but does not simulate it). The copy is re-routed from this
// switch as a fresh packet and flows out through the retrieval VC; its
// stash space stays committed until the eventual positive ACK deletes it.
//
//stashsim:noalloc
func (s *Switch) retransmit(now sim.Tick, stashPort int, pktID uint64) {
	pool := s.stash[stashPort]
	payload, ok := pool.Retained(pktID)
	if !ok {
		return // copy already deleted by a racing positive ACK
	}
	// The payload stays the store entry's and is read in place. Flits are
	// copied by value into the retrieval queue with their routing state
	// rebuilt, so the retained payload is never mutated and a later retry
	// starts from the same bytes.
	s.Counters.E2ERetransmits++
	h := *s.pools.flits.Get(payload.Head())
	s.tracer.Record(now, metrics.EvRetransmit, pktID, int32(s.ID), int32(stashPort), h.Src, h.Dst)
	h.Hops = 0
	h.Phase = proto.PhaseInject
	h.MidGroup = -1
	h.Flags &^= proto.FlagNonMinimal | proto.FlagECN
	dec := s.router.Route(&h, s.ID, s)
	nextVC := dec.NextVC
	if dec.Eject {
		nextVC = 0
	}
	for k, i := 0, payload.Head(); k < payload.Len(); k, i = k+1, s.pools.flits.Next(i) {
		fl := *s.pools.flits.Get(i)
		fl.Hops = 0
		fl.Phase = dec.Phase
		fl.MidGroup = dec.MidGroup
		fl.Flags = (fl.Flags &^ (proto.FlagNonMinimal | proto.FlagECN)) |
			proto.FlagStashCopy | proto.FlagRetransmit
		if dec.NonMinimal {
			fl.Flags |= proto.FlagNonMinimal
		}
		fl.OrigOut = uint8(dec.Out)
		fl.RestoreVC = nextVC
		pool.PushRetr(fl)
	}
	// The copy is queued for retrieval over the stash port's row bus.
	s.inActive |= 1 << uint(stashPort)
	s.created += int64(payload.Len())
}
