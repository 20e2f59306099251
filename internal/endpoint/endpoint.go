// Package endpoint models network endpoints: message segmentation into
// packets, InfiniBand-style queue pairs (a send queue per destination with
// per-packet round-robin arbitration for the injection port), hardware ACK
// generation at destinations, ECN transmission windows (Section IV-B), and
// the error-injection hook of the retransmission extension.
package endpoint

import (
	"stashsim/internal/buffer"
	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/metrics"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
)

// maxQueueScan bounds the per-cycle scan over active send queues so one
// endpoint cycle stays O(1) even with thousands of blocked destinations.
const maxQueueScan = 64

// pktDesc describes one queued packet awaiting injection.
type pktDesc struct {
	dst   int32
	msgID uint32
	size  uint8
	class proto.Class
}

// window is one ECN transmission window (per destination).
type window struct {
	size     int // current window in flits
	inflight int // unacknowledged flits
	lastGrow int64
}

// curPkt is the packet currently being injected (wormhole: it finishes
// before any other traffic may use the injection channel).
type curPkt struct {
	active  bool
	retrans bool // source retransmission: reuses the original PktID/Birth
	desc    pktDesc
	pktID   uint64
	birth   int64
	seq     uint8
}

// outPkt is the source-side record of an unacknowledged data packet
// (Retrans.Enabled only): everything needed to rebuild and resend it.
type outPkt struct {
	desc     pktDesc
	birth    int64
	deadline int64 // armed ACK timer; doubles per retry
	retries  uint8
}

// epTimer is one armed source ACK timer; like the switch's retryRec,
// records are append-ordered and lazily discarded when stale.
type epTimer struct {
	deadline int64
	pktID    uint64
}

// rtxItem is one packet queued for source retransmission.
type rtxItem struct {
	pktID uint64
	size  uint8
}

// Delivery is passed to the trace engine's completion hook.
type Delivery struct {
	Now   int64
	Src   int32
	MsgID uint32
	Flits int
}

// Endpoint is one network endpoint.
type Endpoint struct {
	ID  int32 //stashsim:derived -- structural; rebuilt from the configuration
	cfg *core.Config
	rng *sim.RNG

	toSw    *core.Link //stashsim:derived -- wiring; walked by the switch input port that consumes it
	fromSw  *core.Link
	credits buffer.CreditCounter
	acc     int

	queues      map[int32]*buffer.Queue[pktDesc] // a send queue per destination (queue pair)
	active      []int32
	rrIdx       int
	queuedFlits int64 //stashsim:derived -- the backlog the queues hold; decoding recounts it from them (backlog)
	cur         curPkt
	ackQ        buffer.Queue[proto.Flit]
	pktSeq      uint32

	windows map[int32]*window

	rxECN [proto.NumNetVCs]bool
	rxBad [proto.NumNetVCs]bool // checksum failure seen in the packet so far

	// Delivery dedup (DedupDelivery configs): PktIDs already delivered.
	// Duplicates are re-ACKed but not delivered twice.
	seen map[uint64]struct{}

	// Source retransmission state (Retrans.Enabled): unacknowledged data
	// packets, their armed timers, and the resend queue. outFree recycles
	// settled outPkt records so the steady-state inject/ack cycle stops
	// allocating one record per packet.
	outstanding map[uint64]*outPkt
	outFree     []*outPkt //stashsim:transient -- freelist; decoding draws the outstanding records from it
	outTimers   []epTimer
	rtxQ        buffer.Queue[rtxItem]

	// wake is this endpoint's slot in its block's wake table (see
	// sim.Stepper.NextWake and SetWakeSlot).
	//
	//stashsim:transient -- wake-table slot; a restored run starts all awake
	wake *sim.Tick

	// Gen, when non-nil, generates traffic (assigned by the harness; see
	// package traffic). Every Step calls it first, Gen(now, e), and it
	// returns the next cycle it must run at, a > now; the endpoint sleeps
	// no later than that. A generator is defined by its per-cycle form —
	// called every cycle — and may announce a later cycle than now+1 only
	// if it has already drawn, on its stream, exactly what the per-cycle
	// form draws through cycle a-1: the cycles in between are known misses
	// and cost one draw each. A call on one of them draws nothing and
	// returns a again. So between calls the stream is (a - c) draws ahead
	// of the per-cycle form's at any cycle c < a, and the checkpoint writes
	// GenRNG that much rewound (the barrier rule; State), leaving the stream
	// the generator goes on using alone.
	//
	// Assign it between runs only — every public run entry of the network
	// starts with all components awake, so a new generator runs on the
	// entry's first cycle. Clearing it hands its draws ahead back to GenRNG
	// there. Installing another generator in its place does not: the new
	// one continues the stream from where the old one left it.
	//
	//stashsim:transient -- closure rebuilt by the harness; its stream travels as GenRNG
	Gen func(now sim.Tick, e *Endpoint) sim.Tick

	// genNext is the cycle Gen last announced: a NextWake term, and the
	// measure of how far Gen's stream is ahead (see Gen). Zero — a
	// generator that has announced nothing — is always correct.
	//
	//stashsim:derived -- a fresh generator announces it again on its first call; a checkpoint writes GenRNG at the per-cycle position instead
	genNext sim.Tick

	// GenRNG, when non-nil, is the RNG stream driving Gen's random draws.
	// The harness assigns it alongside Gen so checkpoint/restore can carry
	// the generator stream across a restart; the closure and the snapshot
	// share the stream through this pointer.
	GenRNG *sim.RNG

	// OnDelivered, when non-nil, is invoked for every delivered data
	// packet (used by the trace replay engine).
	//
	//stashsim:transient -- hook installed by the harness
	OnDelivered func(d Delivery)

	// Collector receives measurements. The network hands every endpoint
	// its own CollectorSet shard, so recording stays single-writer even
	// when the parallel executor steps endpoints concurrently.
	//
	//stashsim:derived -- wiring; the shard is walked by the CollectorSet
	Collector *Collector

	// SentFlits counts every flit injected (data and ACK), used by
	// per-endpoint offered-load probes.
	SentFlits int64

	// RecvFlits counts every flit ejected at this endpoint. Unlike the
	// collector it is never gated by warmup, so the stall watchdog can
	// use it as an always-on progress signal.
	RecvFlits int64

	// Exactly-once delivery accounting, never warmup-gated (drain and
	// delivery assertions span the whole run): InjectedPkts counts
	// distinct data packets started (retransmissions excluded),
	// DeliveredUnique counts first deliveries at this endpoint,
	// DupDelivered counts suppressed duplicates, Retransmits counts
	// source-timer resends, and Abandoned counts packets given up after
	// retry exhaustion.
	InjectedPkts    int64
	DeliveredUnique int64
	DupDelivered    int64
	Retransmits     int64
	Abandoned       int64

	// Tracer, when non-nil, receives packet-lifecycle events (inject,
	// eject, ack) from this endpoint.
	//
	//stashsim:transient -- debugging sink; its output stream cannot resume mid-run
	Tracer *metrics.Tracer
}

// New builds endpoint id. Links and credits are attached by the network.
func New(id int32, cfg *core.Config, rng *sim.RNG) *Endpoint {
	e := &Endpoint{
		ID:      id,
		cfg:     cfg,
		rng:     rng.Derive(0x45505453 ^ uint64(id)),
		queues:  make(map[int32]*buffer.Queue[pktDesc]),
		windows: make(map[int32]*window),
	}
	if cfg.DedupDelivery() {
		e.seen = make(map[uint64]struct{})
	}
	if cfg.Retrans.Enabled {
		e.outstanding = make(map[uint64]*outPkt)
	}
	return e
}

// Attach wires the endpoint's links: toSw carries injected flits (credits
// return on it), fromSw carries ejected flits. inBufCap is the capacity of
// the switch end-port input buffer the credits mirror.
func (e *Endpoint) Attach(toSw, fromSw *core.Link, inBufCap int) {
	e.toSw = toSw
	e.fromSw = fromSw
	e.credits = buffer.NewCreditCounter(inBufCap, proto.NumNetVCs)
}

// SetWakeSlot hands the endpoint its wake-table slot and wires it into its
// links: ejected flits and returning injection credits are its input.
// Called by the network's repartition, at a barrier.
func (e *Endpoint) SetWakeSlot(w *sim.Tick) {
	e.wake = w
	e.fromSw.WakeFlits(w)
	e.toSw.WakeCredits(w)
}

// QueuedFlits returns the backlog awaiting injection in flits.
func (e *Endpoint) QueuedFlits() int64 { return e.queuedFlits }

// AuditCredits exposes the injection credit counter for the invariant
// checker's credit-conservation audit.
func (e *Endpoint) AuditCredits() *buffer.CreditCounter { return &e.credits }

// AuditLinks exposes the attached links (injection, ejection).
func (e *Endpoint) AuditLinks() (toSw, fromSw *core.Link) { return e.toSw, e.fromSw }

// EnqueueMessage segments a message into packets and queues them on the
// destination's send queue. It must not be called with dst == e.ID.
func (e *Endpoint) EnqueueMessage(dst int32, flits int, class proto.Class, msgID uint32) {
	if dst == e.ID {
		panic("endpoint: message to self")
	}
	q := e.queues[dst]
	if q == nil {
		q = &buffer.Queue[pktDesc]{}
		e.queues[dst] = q
	}
	wasEmpty := q.Empty()
	for _, size := range proto.Segment(flits) {
		q.Push(pktDesc{dst: dst, msgID: msgID, size: uint8(size), class: class})
	}
	e.queuedFlits += int64(flits)
	if wasEmpty {
		e.active = append(e.active, dst)
	}
	if e.Collector != nil {
		e.Collector.Offered(class, int64(flits))
	}
	if e.wake != nil {
		*e.wake = 0 // new backlog: step at the next opportunity
	}
}

// The endpoint is a sim.Stepper so the network can drive it through the
// parallel executor alongside the switches.
var _ sim.Stepper = (*Endpoint)(nil)

// Step advances the endpoint one cycle: generate traffic, consume ejected
// flits (producing ACKs), and inject one flit when the serialization
// accumulator and credits allow.
func (e *Endpoint) Step(now sim.Tick) {
	if e.Gen != nil {
		e.genNext = e.Gen(now, e)
	} else if e.genNext != 0 {
		// The generator was cleared since the last run: its draws ahead go
		// back to the stream, which now stays where the per-cycle form
		// stopped.
		if e.GenRNG != nil {
			e.GenRNG.Skip(-e.drawsAhead(now))
		}
		e.genNext = 0
	}
	e.stepRecv(now)
	e.stepRetrans(now)
	e.stepInject(now)
}

// NextWake implements sim.Stepper. The endpoint is busy next cycle while
// it has anything to inject (a packet in progress, queued ACKs, resends or
// messages) or a serialization accumulator still filling; otherwise Step
// is a no-op until the cycle its generator announced, a flit or credit on
// its links comes due, or the next scan of armed ACK timers.
func (e *Endpoint) NextWake(now sim.Tick) sim.Tick {
	if e.cur.active || !e.ackQ.Empty() || !e.rtxQ.Empty() ||
		len(e.active) > 0 || e.acc < e.cfg.RateDen {
		return now + 1
	}
	w := min(e.fromSw.NextFlitAt(), e.toSw.NextCreditAt())
	if e.Gen != nil {
		w = min(w, e.genNext)
	}
	if len(e.outTimers) > 0 {
		w = min(w, e.cfg.Retrans.NextScan(now))
	}
	return max(w, now+1)
}

// drawsAhead returns how many draws Gen's stream stands ahead of the
// per-cycle form's at cycle now: one for each cycle from now up to the
// announced one (see Gen).
func (e *Endpoint) drawsAhead(now sim.Tick) int64 { return max(e.genNext-now, 0) }

func (e *Endpoint) stepRecv(now sim.Tick) {
	verify := e.cfg.VerifyChecksums()
	for {
		f, ok := e.fromSw.RecvFlit(now)
		if !ok {
			return
		}
		e.RecvFlits++
		if f.Head() {
			e.rxECN[f.VC] = f.Flags&proto.FlagECN != 0
			e.rxBad[f.VC] = false
		}
		if verify && proto.FlitSum(&f) != f.Csum {
			e.rxBad[f.VC] = true
		}
		if !f.Tail() {
			continue
		}
		corrupt := verify && e.rxBad[f.VC]
		if f.Kind == proto.ACK {
			if corrupt {
				// A corrupted ACK is discarded; the sender's timers
				// recover (resend -> duplicate -> suppressed -> re-ACK).
				continue
			}
			e.onAck(now, &f)
			continue
		}
		// Data packet fully arrived.
		if corrupt {
			e.pushAck(now, &f, true)
			if e.Collector != nil {
				e.Collector.Corrupt()
			}
			continue
		}
		if e.cfg.ErrorRate > 0 && e.rng.Bernoulli(e.cfg.ErrorRate) {
			// Error-injection extension: corrupt arrival, NACK it.
			e.pushAck(now, &f, true)
			if e.Collector != nil {
				e.Collector.Error()
			}
			continue
		}
		if e.seen != nil {
			if _, dup := e.seen[f.PktID]; dup {
				// Exactly-once delivery: suppress the duplicate but still
				// acknowledge it, or a sender whose first ACK was lost
				// would resend forever.
				e.DupDelivered++
				if e.Collector != nil {
					e.Collector.Duplicate()
				}
				if e.cfg.AcksEnabled {
					e.pushAck(now, &f, false)
				}
				continue
			}
			e.seen[f.PktID] = struct{}{}
		}
		e.DeliveredUnique++
		e.Tracer.Record(now, metrics.EvEject, f.PktID, e.ID, -1, f.Src, f.Dst)
		if e.Collector != nil {
			e.Collector.Packet(now, f.Class, now-f.Birth, int64(f.Size))
			if f.Flags&proto.FlagRetransmit != 0 {
				// Birth is preserved across resends, so this is the full
				// loss-to-recovery latency.
				e.Collector.Recovered(now - f.Birth)
			}
		}
		if e.OnDelivered != nil {
			e.OnDelivered(Delivery{Now: now, Src: f.Src, MsgID: f.MsgID, Flits: int(f.Size)})
		}
		if e.cfg.AcksEnabled {
			e.pushAck(now, &f, false)
		}
	}
}

// stepRetrans scans the armed source ACK timers every Retrans.ScanEvery
// cycles, queueing due packets for retransmission with exponential
// backoff and abandoning them once the retry budget is spent.
func (e *Endpoint) stepRetrans(now sim.Tick) {
	rp := &e.cfg.Retrans
	if !rp.Enabled || len(e.outTimers) == 0 {
		return
	}
	if rp.ScanEvery > 1 && now%rp.ScanEvery != 0 {
		return
	}
	n := len(e.outTimers)
	w := 0
	for i := 0; i < n; i++ {
		rec := e.outTimers[i]
		o := e.outstanding[rec.pktID]
		if o == nil || o.deadline != rec.deadline {
			continue // acknowledged or re-armed; stale record
		}
		if rec.deadline > now {
			e.outTimers[w] = rec
			w++
			continue
		}
		if int(o.retries) >= rp.EndpointRetries {
			e.abandon(rec.pktID, o)
			continue
		}
		e.resend(now, rec.pktID, o)
	}
	e.outTimers = append(e.outTimers[:w], e.outTimers[n:]...)
}

// resend charges one retry, re-arms the packet's timer with backoff, and
// queues it for injection.
func (e *Endpoint) resend(now sim.Tick, pktID uint64, o *outPkt) {
	o.retries++
	o.deadline = now + fault.Backoff(e.cfg.Retrans.EndpointTimeout, int(o.retries))
	e.outTimers = append(e.outTimers, epTimer{deadline: o.deadline, pktID: pktID})
	e.rtxQ.Push(rtxItem{pktID: pktID, size: o.desc.size})
	e.queuedFlits += int64(o.desc.size)
	e.Retransmits++
	if e.Collector != nil {
		e.Collector.Retransmit()
	}
}

// newOutPkt draws a zeroed outstanding-packet record from the freelist,
// allocating only when it is empty. Like the switch's e2eEntry freelist it
// is deterministic LIFO reuse — record identity never reaches the wire.
func (e *Endpoint) newOutPkt() *outPkt {
	if n := len(e.outFree); n > 0 {
		o := e.outFree[n-1]
		e.outFree = e.outFree[:n-1]
		*o = outPkt{}
		return o
	}
	return &outPkt{}
}

// dropOut retires an outstanding record and recycles it.
func (e *Endpoint) dropOut(pktID uint64, o *outPkt) {
	delete(e.outstanding, pktID)
	e.outFree = append(e.outFree, o)
}

// abandon gives up on an unacknowledged packet after retry exhaustion,
// releasing its transmission-window share so the destination is not
// permanently penalized.
func (e *Endpoint) abandon(pktID uint64, o *outPkt) {
	e.dropOut(pktID, o)
	e.Abandoned++
	if e.Collector != nil {
		e.Collector.RetransAbandon()
	}
	if e.cfg.ECN.Enabled {
		w := e.window(o.desc.dst)
		w.inflight -= int(o.desc.size)
		if w.inflight < 0 {
			w.inflight = 0
		}
	}
}

// pushAck queues a hardware-generated single-flit ACK. Its MsgID field
// carries the acknowledged packet's size so the source can settle its
// transmission window, and the ECN mark is copied from the data packet.
func (e *Endpoint) pushAck(now sim.Tick, f *proto.Flit, nack bool) {
	flags := proto.FlagHead | proto.FlagTail
	if e.rxECN[f.VC] {
		flags |= proto.FlagECN
	}
	if nack {
		flags |= proto.FlagNack
	}
	ack := proto.Flit{
		Src:      e.ID,
		Dst:      f.Src,
		MsgID:    uint32(f.Size),
		PktID:    f.PktID,
		Birth:    now,
		Size:     1,
		Kind:     proto.ACK,
		Flags:    flags,
		Class:    f.Class,
		MidGroup: -1,
	}
	if e.cfg.VerifyChecksums() {
		ack.Csum = proto.FlitSum(&ack)
	}
	e.ackQ.Push(ack)
}

func (e *Endpoint) stepInject(now sim.Tick) {
	e.toSw.RecvCreditsInto(now, &e.credits)
	if e.acc < e.cfg.RateDen {
		e.acc += e.cfg.RateNum
	}
	if e.acc < e.cfg.RateDen {
		return
	}
	if e.credits.Avail(0) <= 0 {
		return
	}
	f, ok := e.nextFlit(now)
	if !ok {
		return
	}
	e.credits.Take(&f)
	e.toSw.SendFlit(now, f)
	e.acc -= e.cfg.RateDen
	e.SentFlits++
}

// nextFlit selects the next flit to inject: the packet in progress
// continues; otherwise ACKs have priority (they are hardware-generated and
// independent of higher-level protocols); otherwise the next eligible send
// queue starts a packet.
func (e *Endpoint) nextFlit(now sim.Tick) (proto.Flit, bool) {
	if e.cur.active {
		return e.emit(), true
	}
	if !e.ackQ.Empty() {
		return e.ackQ.Pop(), true
	}
	for !e.rtxQ.Empty() {
		item := e.rtxQ.Pop()
		o := e.outstanding[item.pktID]
		if o == nil {
			// Acknowledged or abandoned while queued; drop its backlog share.
			e.queuedFlits -= int64(item.size)
			continue
		}
		e.cur = curPkt{
			active:  true,
			retrans: true,
			desc:    o.desc,
			pktID:   item.pktID,
			birth:   o.birth,
		}
		return e.emit(), true
	}
	if !e.startPacket(now) {
		return proto.Flit{}, false
	}
	return e.emit(), true
}

// startPacket picks the next destination by per-packet round robin over
// the active queue-pair send queues, honoring ECN windows.
func (e *Endpoint) startPacket(now sim.Tick) bool {
	n := len(e.active)
	if n == 0 {
		return false
	}
	scan := n
	if scan > maxQueueScan {
		scan = maxQueueScan
	}
	for i := 0; i < scan; i++ {
		k := e.rrIdx + i
		if k >= n {
			k -= n
		}
		dst := e.active[k]
		q := e.queues[dst]
		desc := *q.Front()
		var w *window
		if e.cfg.ECN.Enabled {
			w = e.window(dst)
			e.growWindow(w, now)
			if w.inflight+int(desc.size) > w.size {
				continue
			}
		}
		q.Pop()
		if q.Empty() {
			// Swap-remove the drained queue from the active list.
			e.active[k] = e.active[n-1]
			e.active = e.active[:n-1]
			if e.rrIdx >= len(e.active) {
				e.rrIdx = 0
			}
		} else {
			e.rrIdx = k + 1
			if e.rrIdx >= n {
				e.rrIdx = 0
			}
		}
		if w != nil {
			w.inflight += int(desc.size)
		}
		e.cur = curPkt{
			active: true,
			desc:   desc,
			pktID:  proto.MakePktID(e.ID, e.pktSeq),
			birth:  now,
		}
		e.pktSeq++
		e.InjectedPkts++
		if e.cfg.Retrans.Enabled {
			o := e.newOutPkt()
			o.desc = desc
			o.birth = now
			o.deadline = now + e.cfg.Retrans.EndpointTimeout
			e.outstanding[e.cur.pktID] = o
			e.outTimers = append(e.outTimers, epTimer{deadline: o.deadline, pktID: e.cur.pktID})
		}
		return true
	}
	if scan < n {
		// Rotate so a long blocked prefix cannot starve later queues.
		e.rrIdx += scan
		if e.rrIdx >= n {
			e.rrIdx -= n
		}
	}
	return false
}

// emit produces the next flit of the packet in progress.
func (e *Endpoint) emit() proto.Flit {
	c := &e.cur
	f := proto.Flit{
		Src:      e.ID,
		Dst:      c.desc.dst,
		MsgID:    c.desc.msgID,
		PktID:    c.pktID,
		Birth:    c.birth,
		Seq:      c.seq,
		Size:     c.desc.size,
		Kind:     proto.Data,
		Class:    c.desc.class,
		MidGroup: -1,
		Phase:    proto.PhaseInject,
	}
	if c.seq == 0 {
		f.Flags |= proto.FlagHead
		e.Tracer.Record(c.birth, metrics.EvInject, f.PktID, e.ID, -1, f.Src, f.Dst)
	}
	if c.seq == c.desc.size-1 {
		f.Flags |= proto.FlagTail
		c.active = false
	}
	if c.retrans {
		f.Flags |= proto.FlagRetransmit
	}
	if e.cfg.VerifyChecksums() {
		f.Csum = proto.FlitSum(&f)
	}
	c.seq++
	e.queuedFlits--
	return f
}

// onAck settles the transmission window for the acknowledged destination
// and retires (or, in modes without a switch stash covering the packet,
// resends) the source's outstanding record.
func (e *Endpoint) onAck(now sim.Tick, f *proto.Flit) {
	e.Tracer.Record(now, metrics.EvAck, f.PktID, e.ID, -1, f.Src, f.Dst)
	if e.Collector != nil {
		e.Collector.Ack()
	}
	if f.Flags&proto.FlagNack == 0 {
		if o := e.outstanding[f.PktID]; o != nil {
			e.dropOut(f.PktID, o)
		}
	} else if e.cfg.Retrans.Enabled && e.cfg.Mode != core.StashE2E {
		// NACK without a stash-resident copy: the source is the only
		// recovery path, so respond immediately rather than waiting for
		// the timer. In StashE2E the first-hop stash resends instead.
		if o := e.outstanding[f.PktID]; o != nil {
			if int(o.retries) >= e.cfg.Retrans.EndpointRetries {
				e.abandon(f.PktID, o)
			} else {
				e.resend(now, f.PktID, o)
			}
		}
	}
	if !e.cfg.ECN.Enabled {
		return
	}
	w := e.window(f.Src)
	origSize := int(f.MsgID)
	if f.Flags&proto.FlagNack == 0 {
		w.inflight -= origSize
		if w.inflight < 0 {
			w.inflight = 0
		}
	}
	if f.Flags&proto.FlagECN != 0 {
		e.growWindow(w, now)
		w.size = w.size * e.cfg.ECN.DecreaseNum / e.cfg.ECN.DecreaseDen
		if w.size < e.cfg.ECN.WindowFloor {
			w.size = e.cfg.ECN.WindowFloor
		}
		w.lastGrow = now
		if e.Collector != nil {
			e.Collector.WindowShrink()
		}
	}
}

func (e *Endpoint) window(dst int32) *window {
	w := e.windows[dst]
	if w == nil {
		w = &window{size: e.cfg.ECN.WindowMax, lastGrow: 0}
		e.windows[dst] = w
	}
	return w
}

// growWindow applies the timer-based recovery: one flit per RecoverPeriod
// cycles since the last update, capped at the maximum window.
func (e *Endpoint) growWindow(w *window, now sim.Tick) {
	if w.size >= e.cfg.ECN.WindowMax {
		w.lastGrow = now
		return
	}
	steps := (now - w.lastGrow) / e.cfg.ECN.RecoverPeriod
	if steps <= 0 {
		return
	}
	w.size += int(steps)
	if w.size > e.cfg.ECN.WindowMax {
		w.size = e.cfg.ECN.WindowMax
	}
	w.lastGrow += steps * e.cfg.ECN.RecoverPeriod
}

// WindowOf exposes a destination's current window size (tests, probes).
func (e *Endpoint) WindowOf(dst int32) int {
	if w := e.windows[dst]; w != nil {
		return w.size
	}
	return e.cfg.ECN.WindowMax
}
