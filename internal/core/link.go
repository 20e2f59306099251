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
// A link holds no storage of its own. Each direction is a timed list of
// in-flight entries in arrival order, threaded through the pools (Pools)
// of the group whose switch steps the direction's consumer:
//
//   - switch → switch: the flits live in the consuming switch's group's
//     flit pool, so an arrival relinks its slot onto the input buffer, and
//     the credits in the producing switch's group's credit pool;
//   - endpoint links, both directions: the pools of the group of the
//     endpoint's own switch, whose worker steps the endpoint too.
//
// AttachInLink and AttachOutLink bind the paths to those pools. So a pool
// is only ever touched by the goroutine that steps its group, and the
// wire's storage follows what is on it. An entry landing on a list lowers
// the consumer's slots to its due cycle: the consumer's wake slot and, when
// the consumer is a switch, that port's due slot (Switch.flitDue/credDue),
// which tells a stepped switch which ports to probe. How a push reaches
// that list is decided by the network's cut into blocks and workers
// (Stage), never by a user:
//
//   - Both ends on one worker: the producer pushes straight onto the
//     consumer's list and lowers the consumer's slots. One
//     goroutine steps both ends, and because Latency >= 1 the entry is not
//     due before the next cycle, so the consumer sees the same list
//     whichever end steps first. When the ends are in different blocks of
//     that worker they are a whole epoch apart at most, not a cycle — one
//     block runs the epoch through before the other starts — and the same
//     holds with "epoch" for "cycle": an epoch is never longer than the
//     Latency of a link between blocks, so the entry is not due before the
//     next epoch, whichever block runs first.
//   - Ends on different workers: the link carries a stage (linkStage), two
//     timed lists per direction, one per epoch parity, held by the side
//     that pushes — the flits in the producing switch's group's flit pool,
//     the credits in the consuming switch's group's credit pool — and a
//     push goes onto the list of the current epoch's parity. Right after
//     the barrier that ends epoch e, the receiving worker copies the list
//     staged during e onto its path in its own pool (LandFlits/
//     LandCredits), which is when its slots are lowered; the staged slots
//     stay the sender's. Right after the next barrier, the sending worker
//     frees that list whole (FreeFlits/FreeCredits) before it pushes onto
//     that parity again. So a staged entry holds a slot of its sender's
//     group for two epochs at most, drawn from the supply every other
//     queue of that group shares. The two sides never touch the same list
//     between barriers, and an epoch is never longer than Latency, so an
//     entry staged during epoch e is not due before epoch e+1 lands it.
//
// Serial code reads the paths only. Whatever reads the wire at a barrier —
// a checkpoint or digest walk, the invariant audit, a repartition — is
// preceded by the network landing and freeing both lists of every staged
// link, so the stage is the epoch executor's business alone.
//
// Link fields are parallel-phase state by design: race-free by the rules
// above rather than by single ownership.
//
//stashsim:phase parallel
type Link struct {
	// Forward path: in-flight flits, popped by the consumer
	// (RecvFlit/PeekFlit/DropFlit, or relinked by Switch.stepArrivals),
	// held in fp: the pool named above once the link is attached, a pool
	// of its own on a bare link (NewLink). What a flit's push and pop
	// touch comes first, in one cache line.
	flits buffer.TimedList[proto.Flit]
	fp    *buffer.FlitPool //stashsim:derived -- wiring; the path's entries are walked, never the pool

	// flitWake and credWake are the wake-table slots (sim.Executor.WakeSlot)
	// of the flits' and the credits' consumer, nil on a bare link; flitDue
	// and credDue the consumer's due slot for this link's port when the
	// consumer is a switch (wired by AttachInLink/AttachOutLink), nil
	// otherwise. Whatever lands an entry on a path — a direct push, a
	// synthesized credit, the epoch drain — lowers both to the path's due
	// cycle: the one signal a link gives its consumer.
	//
	//stashsim:transient -- wiring; repartition re-slots every link
	flitWake *int64
	flitDue  *int64 //stashsim:transient -- wiring; the consuming switch's port slot, set when the link is attached

	// stage, when non-nil, marks a worker-crossing link: pushes go onto
	// its list of the current epoch's parity. It is set only at a barrier
	// (Stage), on the links between two workers' groups, and nil on every
	// other link.
	//
	//stashsim:transient -- no walk ever sees a staged entry: the network flushes the wire first
	stage *linkStage

	Latency int64 //stashsim:derived -- structural; rebuilt from the configuration

	// Fault, when non-nil, screens every transmitted flit for injected
	// drops, outages, and corruption. Credited marks links whose producer
	// runs credit-based flow control (endpoint→switch and switch→switch);
	// on those, a dropped flit's credit is synthesized onto the producer's
	// private synth path so the producer's credit count stays conserved.
	//
	//stashsim:derived -- wiring; the injector walks the fault state it handed out
	Fault    *fault.LinkFault
	Credited bool //stashsim:derived -- wiring

	// Reverse path: credits returned by the forward-consumer, popped by
	// the forward-producer (RecvCredit / RecvCreditsInto), one entry per
	// credit: a consumer returns at most one per cycle, for the one flit
	// its row bus moved off the port. synth carries the credits
	// synthesized for faulted drops, pushed and popped by the
	// forward-producer alone. Both are held in cp, as the flits are in fp.
	credits  creditPath
	synth    creditPath
	cp       *CreditPool //stashsim:derived -- wiring; the paths' entries are walked, never the pool
	credWake *int64      //stashsim:transient -- wiring; repartition re-slots every link
	credDue  *int64      //stashsim:transient -- wiring; the producing switch's port slot, set when the link is attached
}

// linkStage is the staging of a worker-crossing link: each direction's
// lists by epoch parity, in the pool of the side that pushes them (fp, the
// producing switch's group's; cp, the consuming switch's group's), and
// clock, the executor's epoch counter (a typed atomic, read with Load),
// whose parity picks the list a push goes onto. A list's sender pushes
// onto it and frees it, its receiver copies it; the barriers keep the two
// apart, and a receiver reads the sender's pool only through the chunk
// directory the network publishes at every barrier (buffer.Pool.Publish).
// Like Link, it is race-free by those rules rather than by single
// ownership.
//
//stashsim:phase parallel
type linkStage struct {
	clock *atomic.Int64
	flits [2]buffer.TimedList[proto.Flit]
	creds [2]creditPath
	fp    *buffer.FlitPool
	cp    *CreditPool
}

// NewLink builds a bare link with the given one-way latency in cycles, in
// the direct (single-worker) form, over pools of its own; attaching it to a
// switch moves its paths into the pools of the switch's group.
func NewLink(latency int64) *Link {
	own := new(struct {
		Link
		flits buffer.FlitPool
		creds CreditPool
	})
	own.init(latency)
	own.fp, own.cp = &own.flits, &own.creds
	return &own.Link
}

// NewLinks builds one link per latency in one allocation, for a network
// that attaches every one of them to the switch at its switch end: they
// have no pools until then.
func NewLinks(latencies []int64) []Link {
	ls := make([]Link, len(latencies))
	for i := range ls {
		ls[i].init(latencies[i])
	}
	return ls
}

func (l *Link) init(latency int64) {
	if latency < 1 {
		panic("core: link latency must be at least one cycle")
	}
	l.Latency = latency
}

// bindFlits moves the forward path into pool p, bindCredits the credit
// paths: what attaching the link to a switch does. Only a link with
// nothing on the wire moves.
func (l *Link) bindFlits(p *buffer.FlitPool) {
	if l.InFlightFlits() > 0 {
		panic("core: attaching a link with flits on the wire")
	}
	l.fp = p
}

func (l *Link) bindCredits(p *CreditPool) {
	if !l.credits.Empty() || !l.synth.Empty() {
		panic("core: attaching a link with credits on the wire")
	}
	l.cp = p
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
		if l.Credited {
			at := now + 2*l.Latency
			l.synth.Push(l.cp, at, proto.Credit{VC: f.VC, Shared: f.Flags&proto.FlagShared != 0})
			l.creditsDue(at)
		}
		return
	}
	at := now + l.Latency
	if st := l.stage; st != nil {
		st.flits[st.clock.Load()&1].Push(st.fp, at, f)
		return
	}
	l.flits.Push(l.fp, at, f)
	l.flitsDue(at)
}

// SendCredit returns a credit to the link's producer; it arrives after the
// same latency as the forward path.
//
//stashsim:noalloc
func (l *Link) SendCredit(now int64, c proto.Credit) {
	at := now + l.Latency
	if st := l.stage; st != nil {
		st.creds[st.clock.Load()&1].Push(st.cp, at, c)
		return
	}
	l.credits.Push(l.cp, at, c)
	l.creditsDue(at)
}

// flitsDue and creditsDue lower the slots of the flits' and of the credits'
// consumer to at, the due cycle of an entry that just landed on the path.
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

// NextFlitAt returns the due cycle of the oldest flit on the wire,
// NextCreditAt of the oldest returned or synthesized credit
// (math.MaxInt64 when empty): the consumers' sim.Stepper.NextWake terms.
//
//stashsim:noalloc
func (l *Link) NextFlitAt() int64 { return l.flits.NextAt() }

//stashsim:noalloc
func (l *Link) NextCreditAt() int64 { return min(l.credits.NextAt(), l.synth.NextAt()) }

// Stage selects the link's delivery form: a non-nil clock (the executor's
// epoch counter) gives the link a stage in the pools of its producing
// switch's group, from, and its consuming switch's, to, and marks it
// worker-crossing; nil drops the stage, for a link internal to one worker.
// Call only at a barrier, when no component is stepping, and only after
// the network has landed and freed the stage: an entry still staged would
// be lost.
//
//stashsim:phase serial
func (l *Link) Stage(clock *atomic.Int64, from, to *Pools) {
	if st := l.stage; st != nil && st.flits[0].Len()+st.flits[1].Len()+st.creds[0].Len()+st.creds[1].Len() > 0 {
		panic("core: restaging a link with entries staged")
	}
	if clock == nil {
		l.stage = nil
		return
	}
	l.stage = &linkStage{clock: clock, fp: &from.flits, cp: &to.creds}
}

// Staged reports whether the link is in the worker-crossing form.
// Audit-only, like InFlightFlits.
func (l *Link) Staged() bool { return l.stage != nil }

// LandFlits copies the flits staged under parity p onto the forward path,
// in the consumer's pool, and wakes the consumer for the path's first due
// cycle. The caller (the consumer worker's drain, running after the epoch
// barrier ordered the remote producer's pushes before this read) passes
// the parity the producer staged during the *previous* epoch; the producer
// is now staging onto the other one. Entries come out in push order, which
// is arrival order because Latency is constant. The staged slots stay in
// the producer's pool until FreeFlits.
//
//stashsim:phase parallel
//stashsim:noalloc
func (l *Link) LandFlits(p int) {
	st := l.stage
	st.flits[p].CopyTo(st.fp, &l.flits, l.fp)
	l.flitsDue(l.NextFlitAt())
}

// LandCredits is LandFlits for the reverse path, run by the worker of the
// link's producer — the credits' consumer.
//
//stashsim:phase parallel
//stashsim:noalloc
func (l *Link) LandCredits(p int) {
	st := l.stage
	st.creds[p].CopyTo(st.cp, &l.credits, l.cp)
	l.creditsDue(l.NextCreditAt())
}

// FreeFlits frees the flits staged under parity p, landed an epoch ago,
// in one splice onto the producer's pool's free stack: the producer's
// worker runs it before staging onto p again. FreeCredits is the same for
// the credits, run by the consumer's worker.
//
//stashsim:phase parallel
//stashsim:noalloc
func (l *Link) FreeFlits(p int) { l.stage.flits[p].Reset(l.stage.fp) }

//stashsim:phase parallel
//stashsim:noalloc
func (l *Link) FreeCredits(p int) { l.stage.creds[p].Reset(l.stage.cp) }

// RecvFlit returns the next flit whose arrival time has passed.
//
//stashsim:noalloc
func (l *Link) RecvFlit(now int64) (proto.Flit, bool) { return l.flits.PopDue(l.fp, now) }

// PeekFlit returns a pointer to the next arrived flit without consuming
// it, or nil.
//
//stashsim:noalloc
func (l *Link) PeekFlit(now int64) *proto.Flit {
	if !l.flits.FrontDue(now) {
		return nil
	}
	return l.flits.Front(l.fp)
}

// DropFlit consumes the flit previously returned by PeekFlit.
//
//stashsim:noalloc
func (l *Link) DropFlit(now int64) {
	if _, ok := l.flits.PopDue(l.fp, now); !ok {
		panic("core: DropFlit with no due flit")
	}
}

// InFlightFlits returns the number of flits on the wire's path.
// Audit-only: call it only at a barrier, after the network has flushed the
// wire (see Link).
func (l *Link) InFlightFlits() int { return l.flits.Len() }

// auditFlits calls fn for every flit currently on the wire, in arrival
// order. Used by the invariant checker only (fn must not mutate the
// flit), under the same barrier rule as InFlightFlits.
func (l *Link) auditFlits(fn func(*proto.Flit)) {
	q := l.flits.Slots()
	for k, i := 0, q.Head(); k < q.Len(); k, i = k+1, l.fp.Next(i) {
		fn(l.fp.Get(i))
	}
}

// auditCredits calls fn for every credit currently on the wire.
func (l *Link) auditCredits(fn func(proto.Credit)) {
	for _, path := range [...]*creditPath{&l.credits, &l.synth} {
		q := path.Slots()
		for k, i := 0, q.Head(); k < q.Len(); k, i = k+1, l.cp.Next(i) {
			fn(*l.cp.Get(i))
		}
	}
}

// RecvCredit returns the next credit whose arrival time has passed: the
// earlier-due of the receiver's returned credits and the synthesized
// fault-drop credits, ties going to the receiver's. Every consumer folds
// credits into a commutative counter, so the order of one cycle's credits
// carries no information.
//
//stashsim:noalloc
func (l *Link) RecvCredit(now int64) (proto.Credit, bool) {
	if l.synth.NextAt() < l.credits.NextAt() {
		return l.synth.PopDue(l.cp, now)
	}
	return l.credits.PopDue(l.cp, now)
}

// RecvCreditsInto folds every due credit — receiver-returned and
// fault-synthesized — into cc and returns how many were applied: what
// draining RecvCredit into cc does, a path at a time.
//
//stashsim:noalloc
func (l *Link) RecvCreditsInto(now int64, cc *buffer.CreditCounter) int {
	return foldCredits(&l.credits, l.cp, now, cc) + foldCredits(&l.synth, l.cp, now, cc)
}

// A creditPath is a link's credit direction, the credits in due order. A
// CreditPool is a group's storage of the credits on the wire, one slot
// each.
type (
	creditPath = buffer.TimedList[proto.Credit]
	CreditPool = buffer.Pool[proto.Credit]
)

// foldCredits folds every due credit of path into cc and returns their
// count.
//
//stashsim:noalloc
func foldCredits(path *creditPath, p *CreditPool, now int64, cc *buffer.CreditCounter) int {
	n := 0
	for ; path.FrontDue(now); n++ {
		c, _ := path.PopDue(p, now)
		cc.Return(c)
	}
	return n
}
