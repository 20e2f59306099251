package core

import (
	"stashsim/internal/fault"
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

// sbMsg is one message in flight on the side band, which is a buffer.Timed:
// the entry's deadline is the delivery cycle.
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
	s.sideband.Push(now+s.cfg.SidebandLat, sbMsg{kind: kind, pktID: pktID, dst: dst, aux: aux, size: size})
	s.Counters.SidebandMsgs++
}

// stepSideband delivers due side-band messages.
//
//stashsim:noalloc
func (s *Switch) stepSideband(now sim.Tick) {
	for {
		m, ok := s.sideband.PopDue(now)
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
	e := s.track[m.dst][m.pktID]
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
		s.dropEntry(int(m.dst), m.pktID, e)
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
	e := s.track[port][f.PktID]
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
			s.dropEntry(port, f.PktID, e)
		}
		return
	}
	if f.Flags&proto.FlagNack != 0 {
		if s.cfg.Retrans.Enabled && !s.armRetry(now, port, f.PktID, e) {
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
		s.dropEntry(port, f.PktID, e)
		s.Counters.E2EDeletes++
	} else {
		e.acked = true
	}
}

// armRetry charges one retry attempt to a tracked entry and re-arms its
// ACK timer with exponential backoff. It returns false when the retry
// budget is exhausted, in which case the entry has been abandoned (stash
// copy freed, recovery left to the source endpoint's timer).
//
//stashsim:noalloc
func (s *Switch) armRetry(now sim.Tick, port int, pktID uint64, e *e2eEntry) bool {
	rp := &s.cfg.Retrans
	if int(e.retries) >= rp.SwitchRetries {
		s.abandonEntry(now, port, pktID, e)
		return false
	}
	e.retries++
	e.deadline = now + fault.Backoff(rp.SwitchTimeout, int(e.retries))
	s.retryQ = append(s.retryQ, retryRec{deadline: e.deadline, pktID: pktID, port: uint8(port)})
	return true
}

// abandonEntry gives up on local (stash) recovery of a tracked packet:
// the copy's space is freed and the tracking entry removed. The source
// endpoint's retransmission timer is now the packet's only cover.
//
//stashsim:noalloc
func (s *Switch) abandonEntry(now sim.Tick, port int, pktID uint64, e *e2eEntry) {
	if e.stashPort >= 0 && !e.lost {
		s.sbSend(now, sbDelete, pktID, uint8(e.stashPort), 0, e.size)
	}
	s.dropEntry(port, pktID, e)
	s.Counters.RetryAbandoned++
}

// stepRetry scans the armed ACK timers every Retrans.ScanEvery cycles.
// Stale records (entry settled, or re-armed under a different deadline)
// are dropped; due records trigger a stash resend and re-arm with
// backoff, or abandon the entry once the retry budget is spent.
//
//stashsim:noalloc
func (s *Switch) stepRetry(now sim.Tick) {
	rp := &s.cfg.Retrans
	if !rp.Enabled || len(s.retryQ) == 0 {
		return
	}
	if rp.ScanEvery > 1 && now%rp.ScanEvery != 0 {
		return
	}
	n := len(s.retryQ)
	w := 0
	for i := 0; i < n; i++ {
		rec := s.retryQ[i]
		e := s.track[rec.port][rec.pktID]
		if e == nil || e.deadline != rec.deadline {
			continue
		}
		if rec.deadline > now {
			s.retryQ[w] = rec
			w++
			continue
		}
		s.Counters.RetryTimeouts++
		if e.lost {
			s.abandonEntry(now, int(rec.port), rec.pktID, e)
			continue
		}
		if !s.armRetry(now, int(rec.port), rec.pktID, e) {
			continue
		}
		if e.stashPort >= 0 {
			s.sbSend(now, sbRetransmit, rec.pktID, uint8(e.stashPort), rec.port, e.size)
		}
		// stashPort < 0: the location report is still in flight (it
		// cannot be lost — the side band is fault-free); the re-armed
		// timer covers the wait.
	}
	// Keep the records armed during this scan, then drop the consumed
	// prefix.
	//lint:allow allocfree -- in-place compaction: appends a suffix of the same backing array, cap always suffices
	s.retryQ = append(s.retryQ[:w], s.retryQ[n:]...)
}

// noteSealed books what a parity-tracker call reports: minted parity flits
// enter the flit-conservation count, sealed groups the counters.
//
//stashsim:noalloc
func (s *Switch) noteSealed(minted, sealed int) {
	s.created += int64(minted)
	s.Counters.ParityGroupsSealed += int64(sealed)
}

// findEntry locates the tracking entry of a packet across the end ports,
// returning the entry and its port (-1 when untracked).
//
//stashsim:noalloc
func (s *Switch) findEntry(pktID uint64) (*e2eEntry, int) {
	for p := range s.track {
		if e := s.track[p][pktID]; e != nil {
			return e, p
		}
	}
	return nil, -1
}

// reconRec is one in-flight parity reconstruction: at due, the rebuilt
// copy (payload carried in buf when retention is on) lands in the target
// bank and a fresh location report heads to the originating end port.
// Records are appended only by the serial fault hook (FailStashBank) and
// drained by Step, so the queue is partition-private like retryQ.
//
//stashsim:owner partition
type reconRec struct {
	due    int64
	pktID  uint64
	size   uint8
	origin uint8         // end port owning the tracking entry at begin time
	target uint8         // bank receiving the rebuilt copy (space reserved)
	buf    *proto.PktBuf // retained payload extracted from the failed bank; may be nil
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
			e, ep := s.findEntry(pktID)
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
			buf, _ := pool.ExtractCopy(pktID)
			s.stash[target].Reserve(int(size))
			s.parity.BeginRecon(pktID)
			e.recon = true
			e.stashPort = -1
			// The rebuild reads the k-1 surviving members plus parity over
			// the side band: one side-band traversal plus a flit-serial XOR
			// pass over the survivors.
			due := now + s.cfg.SidebandLat + int64(s.cfg.StashParity-1)*int64(size)
			s.reconQ = append(s.reconQ, reconRec{
				due: due, pktID: pktID, size: size,
				origin: uint8(ep), target: uint8(target), buf: buf,
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
		e, p := s.findEntry(pktID)
		if e == nil {
			continue
		}
		if e.acked {
			// The ACK already settled delivery and was waiting for the
			// location report to free the copy; the failure freed it, so
			// the entry is complete.
			s.dropEntry(p, pktID, e)
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
	e, ep := s.findEntry(rec.pktID)
	if e == nil || !e.recon || ep != int(rec.origin) {
		s.stash[rec.target].Unreserve(int(rec.size))
		if rec.buf != nil {
			rec.buf.Release()
		}
		return
	}
	e.recon = false
	s.stash[rec.target].InstallCopy(rec.pktID, int(rec.size), rec.buf)
	s.created += int64(rec.size)
	s.noteSealed(s.parity.OnStore(rec.pktID, rec.size, int(rec.target)))
	s.sbSend(now, sbLocation, rec.pktID, rec.origin, rec.target, rec.size)
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
	buf, ok := pool.TakeCopy(pktID)
	if !ok {
		return // copy already deleted by a racing positive ACK
	}
	// The buffer stays owned by the store entry; this reference covers the
	// re-injection read. Flits are copied by value into the retrieval queue
	// with their routing state rebuilt, so the retained payload is never
	// mutated and a later retry starts from the same bytes.
	s.Counters.E2ERetransmits++
	h := buf.Flits[0]
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
	for i := range buf.Flits {
		fl := buf.Flits[i]
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
	s.created += int64(len(buf.Flits))
	buf.Release()
}
