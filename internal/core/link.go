package core

import (
	"sync/atomic"

	"stashsim/internal/buffer"
	"stashsim/internal/fault"
	"stashsim/internal/proto"
)

// Link is one directed channel between two components (switch→switch,
// endpoint→switch or switch→endpoint) together with its reverse credit
// path. Flits written at cycle t become visible to the receiver at
// t+Latency; credits likewise.
//
// Each direction is a ring of in-flight entries in arrival order, owned by
// its consumer. An entry landing on a ring lowers the consumer's slots to
// its due cycle: the consumer's wake slot and, when the consumer is a
// switch, that port's due slot (Switch.flitDue/credDue), which tells a
// stepped switch which ports to probe. How a push reaches that ring is
// decided by the network's cut into blocks and workers (Stage), never by a
// user:
//
//   - Both ends on one worker: the producer pushes straight onto the
//     consumer's ring and lowers the consumer's slots. One
//     goroutine steps both ends, and because Latency >= 1 the entry is not
//     due before the next cycle, so the consumer sees the same ring
//     whichever end steps first. When the ends are in different blocks of
//     that worker they are a whole epoch apart at most, not a cycle — one
//     block runs the epoch through before the other starts — and the same
//     holds with "epoch" for "cycle": an epoch is never longer than the
//     Latency of a link between blocks, so the entry is not due before the
//     next epoch, whichever block runs first.
//   - Ends on different workers: the producer stages the push in the
//     slab of the current epoch's parity; the consumer's worker drains
//     the other slab — everything staged last epoch — right after the
//     epoch barrier (DrainEpochFlits/DrainEpochCredits), which is when
//     the consumer's slots are lowered. The two
//     sides never touch the same slab between barriers, and an epoch is
//     never longer than Latency, so an entry staged during epoch e is not
//     due before epoch e+1 drains it.
//
// Link fields are parallel-phase state by design: race-free by the rules
// above rather than by single ownership.
//
//stashsim:phase parallel
type Link struct {
	Latency int64 //stashsim:derived -- structural; rebuilt from the configuration

	// Fault, when non-nil, screens every transmitted flit for injected
	// drops, outages, and corruption. Credited marks links whose producer
	// runs credit-based flow control (endpoint→switch and switch→switch);
	// on those, a dropped flit's credit is synthesized onto the producer's
	// private synth ring so the producer's credit count stays conserved.
	//
	//stashsim:derived -- wiring; the injector walks the fault state it handed out
	Fault    *fault.LinkFault
	Credited bool //stashsim:derived -- wiring

	// Forward path: in-flight flits, popped by the consumer
	// (RecvFlit/PeekFlit/DropFlit).
	flits buffer.Timed[proto.Flit]

	// Reverse path: credits returned by the forward-consumer, popped by
	// the forward-producer (RecvCredit / RecvCreditsInto). Credits are
	// carried as per-cycle batches — every credit returned during one
	// cycle coalesces into one entry of per-VC and shared counts — so a
	// cycle costs one ring slot however many credits it returns. synth
	// carries the credits synthesized for faulted drops, pushed and popped
	// by the forward-producer alone.
	credits creditRing
	synth   creditRing

	// faultDropped counts flits destroyed on this link by injected
	// faults, the per-edge destruction term of the conservation law.
	faultDropped int64

	// flitWake and credWake are the wake-table slots (sim.Executor.WakeSlot)
	// of the flits' and the credits' consumer, nil on a bare link; flitDue
	// and credDue the consumer's due slot for this link's port when the
	// consumer is a switch (wired by AttachInLink/AttachOutLink), nil
	// otherwise. Whatever lands an entry on a ring — a direct push, a
	// synthesized credit, the epoch drain — lowers both to the ring's due
	// cycle: the one signal a link gives its consumer.
	//
	//stashsim:transient -- wiring; repartition re-slots every link
	flitWake *int64
	credWake *int64 //stashsim:transient -- wiring; repartition re-slots every link
	flitDue  *int64 //stashsim:transient -- wiring; the consuming switch's port slot, set when the link is attached
	credDue  *int64 //stashsim:transient -- wiring; the producing switch's port slot, set when the link is attached

	// epoch, when non-nil, marks a worker-crossing link: pushes stage
	// into slab epoch&1. The pointer is written only at a barrier (Stage);
	// the pointee is the executor's atomic epoch counter.
	//
	//stashsim:transient -- the delivery form belongs to the partitioning, not the snapshot
	epoch    *atomic.Int64
	flitSlab [2][]timedFlit
	credSlab [2][]creditBatch
}

// NewLink builds a link with the given one-way latency in cycles, in the
// direct (single-worker) form.
func NewLink(latency int64) *Link {
	if latency < 1 {
		panic("core: link latency must be at least one cycle")
	}
	return &Link{Latency: latency}
}

// SendFlit transmits a flit at cycle now; it arrives at now+Latency.
// When a fault injector is attached, the flit may be dropped on the wire
// (whole packets at a time — see fault.LinkFault) or corrupted in place.
// The producer has already taken a downstream credit for a dropped flit,
// so on credited links the credit the receiver would have returned is
// synthesized at the time it would have come back (one round trip);
// without it the producer's credit pool would leak one slot per drop.
//
//stashsim:noalloc
func (l *Link) SendFlit(now int64, f proto.Flit) {
	if l.Fault != nil && l.Fault.OnFlit(now, &f) {
		l.faultDropped++
		if l.Credited {
			at := now + 2*l.Latency
			l.synth.add(at, proto.Credit{VC: f.VC, Shared: f.Flags&proto.FlagShared != 0})
			l.creditsDue(at)
		}
		return
	}
	at := now + l.Latency
	if e := l.epoch; e != nil {
		s := e.Load() & 1
		l.flitSlab[s] = append(l.flitSlab[s], timedFlit{At: at, V: f})
		return
	}
	l.flits.Push(at, f)
	l.flitsDue(at)
}

// SendCredit returns a credit to the link's producer; it arrives after the
// same latency as the forward path. Credits sent during the same cycle
// coalesce into one batch entry.
//
//stashsim:noalloc
func (l *Link) SendCredit(now int64, c proto.Credit) {
	at := now + l.Latency
	if e := l.epoch; e != nil {
		slab := &l.credSlab[e.Load()&1]
		n := len(*slab)
		if n == 0 || (*slab)[n-1].At != at {
			*slab = append(*slab, creditBatch{At: at})
			n++
		}
		(*slab)[n-1].V.add(c)
		return
	}
	l.credits.add(at, c)
	l.creditsDue(at)
}

// flitsDue and creditsDue lower the slots of the flits' and of the credits'
// consumer to at, the due cycle of an entry that just landed on the ring.
//
//stashsim:noalloc
func (l *Link) flitsDue(at int64) {
	wakeBy(l.flitWake, at)
	wakeBy(l.flitDue, at)
}

//stashsim:noalloc
func (l *Link) creditsDue(at int64) {
	wakeBy(l.credWake, at)
	wakeBy(l.credDue, at)
}

// WakeFlits and WakeCredits wire the wake slot of the flits' and of the
// credits' consumer. Barrier-only.
func (l *Link) WakeFlits(w *int64)   { l.flitWake = w }
func (l *Link) WakeCredits(w *int64) { l.credWake = w }

// NextFlitAt returns the due cycle of the oldest flit on the ring,
// NextCreditAt of the oldest returned or synthesized credit batch
// (math.MaxInt64 when empty): the consumers' sim.Stepper.NextWake terms.
//
//stashsim:noalloc
func (l *Link) NextFlitAt() int64 { return l.flits.NextAt() }

//stashsim:noalloc
func (l *Link) NextCreditAt() int64 { return min(l.credits.NextAt(), l.synth.NextAt()) }

// Stage selects the link's delivery form: a non-nil clock (the executor's
// epoch counter) marks the link as worker-crossing, nil as internal to
// one worker. Entries still staged under the previous form are flushed
// into the rings first, so nothing is stranded and the rings stay in
// arrival order. Call only at a barrier, when no component is stepping.
//
//stashsim:phase serial
func (l *Link) Stage(clock *atomic.Int64) {
	for _, t := range staged(&l.flitSlab) {
		l.flits.Push(t.At, t.V)
	}
	for _, b := range staged(&l.credSlab) {
		l.credits.Push(b.At, b.V)
	}
	l.dropStaged()
	l.epoch = clock
}

// Staged reports whether the link is in the worker-crossing form.
// Audit-only, like InFlightFlits.
func (l *Link) Staged() bool { return l.epoch != nil }

// staged returns the entries still waiting in a direction's staging
// slabs, in push (= arrival) order. Barrier-only: the consumer drained the
// older slab when the last epoch began, so at most one slab is occupied
// and its entries are all newer than the ring's.
func staged[T any](slabs *[2][]T) []T {
	if len(slabs[0]) > 0 && len(slabs[1]) > 0 {
		panic("core: both link slabs staged at a barrier")
	}
	if len(slabs[0]) > 0 {
		return slabs[0]
	}
	return slabs[1]
}

// dropStaged empties both staging slabs, keeping their capacity.
func (l *Link) dropStaged() {
	for s := range l.flitSlab {
		l.flitSlab[s] = l.flitSlab[s][:0]
		l.credSlab[s] = l.credSlab[s][:0]
	}
}

// DrainEpochFlits moves one staging slab onto the consumer's ring at an
// epoch boundary and wakes the consumer for the ring's first due cycle. The
// caller (the consumer worker's drain, running after the epoch barrier
// ordered the remote producer's slab writes before this read) passes the
// slab the producer filled during the *previous* epoch; the producer is now
// staging into the other one. Entries come out in push order, which is
// arrival order because Latency is constant.
//
//stashsim:phase parallel
//stashsim:noalloc
func (l *Link) DrainEpochFlits(slab int) {
	in := l.flitSlab[slab]
	for i := range in {
		l.flits.Push(in[i].At, in[i].V)
	}
	l.flitSlab[slab] = in[:0]
	l.flitsDue(l.NextFlitAt())
}

// DrainEpochCredits is DrainEpochFlits for the reverse path, run by the
// worker of the link's producer — the credits' consumer.
//
//stashsim:phase parallel
//stashsim:noalloc
func (l *Link) DrainEpochCredits(slab int) {
	in := l.credSlab[slab]
	for i := range in {
		l.credits.Push(in[i].At, in[i].V)
	}
	l.credSlab[slab] = in[:0]
	l.creditsDue(l.NextCreditAt())
}

// FaultDropped returns the number of flits destroyed on this link by
// injected faults.
func (l *Link) FaultDropped() int64 { return l.faultDropped }

// RecvFlit returns the next flit whose arrival time has passed.
//
//stashsim:noalloc
func (l *Link) RecvFlit(now int64) (proto.Flit, bool) { return l.flits.PopDue(now) }

// PeekFlit returns a pointer to the next arrived flit without consuming
// it, or nil. Used when the receiver may have to stall the write (bank
// conflicts).
//
//stashsim:noalloc
func (l *Link) PeekFlit(now int64) *proto.Flit {
	if !l.flits.FrontDue(now) {
		return nil
	}
	return &l.flits.Front().V
}

// DropFlit consumes the flit previously returned by PeekFlit.
//
//stashsim:noalloc
func (l *Link) DropFlit(now int64) {
	if _, ok := l.flits.PopDue(now); !ok {
		panic("core: DropFlit with no due flit")
	}
}

// InFlightFlits returns the number of flits on the wire, staged or not.
// Audit-only: call it only at a barrier (between runs, or from the
// executor's serial BeforeEpoch/AfterEpoch hooks).
func (l *Link) InFlightFlits() int {
	return l.flits.Len() + len(staged(&l.flitSlab))
}

// auditFlits calls fn for every flit currently on the wire, in arrival
// order. Used by the invariant checker only (fn must not mutate the
// flit), under the same barrier rule as InFlightFlits.
func (l *Link) auditFlits(fn func(*proto.Flit)) {
	for i := 0; i < l.flits.Len(); i++ {
		fn(&l.flits.At(i).V)
	}
	stagedFlits := staged(&l.flitSlab)
	for i := range stagedFlits {
		fn(&stagedFlits[i].V)
	}
}

// auditCredits calls fn once per credit currently on the wire, expanding
// the per-cycle batches.
func (l *Link) auditCredits(fn func(proto.Credit)) {
	audit := func(b *creditCounts) {
		for vc := range b.resv {
			for k := uint16(0); k < b.resv[vc]; k++ {
				fn(proto.Credit{VC: uint8(vc)})
			}
		}
		for k := uint16(0); k < b.shared; k++ {
			fn(proto.Credit{Shared: true})
		}
	}
	for i := 0; i < l.credits.Len(); i++ {
		audit(&l.credits.At(i).V)
	}
	for i := 0; i < l.synth.Len(); i++ {
		audit(&l.synth.At(i).V)
	}
	stagedCred := staged(&l.credSlab)
	for i := range stagedCred {
		audit(&stagedCred[i].V)
	}
}

// RecvCredit returns the next credit whose arrival time has passed: the
// earlier-due of the receiver's returned credits and the synthesized
// fault-drop credits, ties going to the receiver's. Within one batch
// (one sending cycle) credits come out reserved-VC-ascending, then shared;
// every consumer folds them into a commutative counter, so the intra-cycle
// order carries no information.
//
//stashsim:noalloc
func (l *Link) RecvCredit(now int64) (proto.Credit, bool) {
	switch c, s := l.credits.NextAt(), l.synth.NextAt(); {
	case c <= now && c <= s:
		return l.credits.takeDue(now), true
	case s <= now:
		return l.synth.takeDue(now), true
	}
	return proto.Credit{}, false
}

// RecvCreditsInto folds every due credit — receiver-returned and
// fault-synthesized — into cc and returns how many were applied. This is
// the hot-path form of RecvCredit: a few integer adds per sending cycle
// instead of one ring pop per credit. Equivalent to draining RecvCredit
// in a loop because CreditCounter.Return is commutative.
//
//stashsim:noalloc
func (l *Link) RecvCreditsInto(now int64, cc *buffer.CreditCounter) int {
	return l.credits.foldDue(now, cc) + l.synth.foldDue(now, cc)
}

// creditCounts holds every credit that one cycle returned over a link: a
// count per reserved VC plus a shared-pool count. A creditBatch is one such
// cycle on the wire, due at its At.
//
//stashsim:phase parallel
type creditCounts struct {
	resv   [proto.NumNetVCs]uint16
	shared uint16
}

type (
	timedFlit   = buffer.Entry[proto.Flit]
	creditBatch = buffer.Entry[creditCounts]
)

//stashsim:noalloc
func (b *creditCounts) add(c proto.Credit) {
	if c.Shared {
		b.shared++
		return
	}
	if c.VC >= proto.NumNetVCs {
		panic("core: reserved credit for an internal VC")
	}
	b.resv[c.VC]++
}

// take removes one credit in the canonical order (reserved VCs ascending,
// then shared) and reports whether the batch is now empty.
//
//stashsim:noalloc
func (b *creditCounts) take() (proto.Credit, bool) {
	total := b.shared
	var c proto.Credit
	taken := false
	for vc := range b.resv {
		total += b.resv[vc]
		if !taken && b.resv[vc] > 0 {
			b.resv[vc]--
			c = proto.Credit{VC: uint8(vc)}
			taken = true
			total--
		}
	}
	if !taken {
		if b.shared == 0 {
			panic("core: take from empty credit batch")
		}
		b.shared--
		c = proto.Credit{Shared: true}
		total--
	}
	return c, total == 0
}

// creditRing is one credit path: in-flight batches in due order. Only what
// is specific to credits lives here — coalescing into the newest batch,
// taking one credit from or folding the whole of the oldest; the queue is
// the embedded Timed.
//
//stashsim:phase parallel
type creditRing struct {
	buffer.Timed[creditCounts]
}

// add coalesces a credit into the newest batch when the due times match,
// otherwise appends a new batch.
//
//stashsim:noalloc
func (r *creditRing) add(at int64, c proto.Credit) {
	if r.Len() == 0 || r.Back().At != at {
		r.Push(at, creditCounts{})
	}
	r.Back().V.add(c)
}

// takeDue removes a single credit from the front batch, which the caller
// has found due.
//
//stashsim:noalloc
func (r *creditRing) takeDue(now int64) proto.Credit {
	c, empty := r.Front().V.take()
	if empty {
		r.PopDue(now)
	}
	return c
}

// foldDue folds every due batch into cc and returns the credit count.
//
//stashsim:noalloc
func (r *creditRing) foldDue(now int64, cc *buffer.CreditCounter) int {
	total := 0
	for r.FrontDue(now) {
		b := &r.Front().V
		for vc := range b.resv {
			if n := int(b.resv[vc]); n > 0 {
				cc.ReturnN(vc, n)
				total += n
			}
		}
		if n := int(b.shared); n > 0 {
			cc.ReturnShared(n)
			total += n
		}
		r.PopDue(now)
	}
	return total
}
