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

// sendQueue is the send queue of one destination (queue pair), listed
// while it holds packets: a list in the group's send-queue pool.
type sendQueue struct {
	dst int32
	q   buffer.List[proto.PktDesc]
}

// window is one ECN transmission window (per destination). A destination
// without one has a fresh one: size WindowMax, nothing in flight.
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
	desc    proto.PktDesc
	pktID   uint64
	birth   int64
	seq     uint8
}

// outPkt is the source-side record of an unacknowledged data packet
// (Retrans.Enabled only): everything needed to rebuild and resend it, and
// its ACK timer.
type outPkt struct {
	fault.Timer
	desc  proto.PktDesc
	birth int64
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

	toSw    *core.Link
	fromSw  *core.Link
	credits buffer.CreditCounter
	acc     int

	// pools is the storage the endpoint's queues draw from: its switch's
	// group's once attached to one, else pools of its own, made when it
	// first queues something (see Pools).
	//
	//stashsim:derived -- storage, not state: decoding pushes every queued entry into a fresh pool
	pools *core.Pools

	// active lists the send queues that hold packets, in round-robin
	// order: a send queue per destination (queue pair) while it holds
	// packets, and none otherwise.
	active []sendQueue
	// queues is active's index of each listed destination's send queue.
	//
	//stashsim:derived -- an index of active; decoding rebuilds it from the walked list
	queues      map[int32]int32
	rrIdx       int
	queuedFlits int64 //stashsim:derived -- the backlog the queues hold; decoding recounts it from them (backlog)
	cur         curPkt
	ackQ        buffer.FlitList
	pktSeq      uint32

	// windows holds the ECN windows that differ from a fresh one (see
	// setWindow).
	windows map[int32]window

	rxECN [proto.NumNetVCs]bool
	rxBad [proto.NumNetVCs]bool // checksum failure seen in the packet so far

	// Delivery dedup (DedupDelivery configs): PktIDs already delivered.
	// Duplicates are re-ACKed but not delivered twice.
	seen map[uint64]struct{}

	// Source retransmission state (Retrans.Enabled): unacknowledged data
	// packets with their armed timers, and the resend queue.
	outstanding fault.Ledger[outPkt, *outPkt]
	rtxQ        buffer.List[proto.Resend]

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
		queues:  make(map[int32]int32),
		windows: make(map[int32]window),
		outstanding: fault.NewLedger[outPkt](
			cfg.Retrans.EndpointTimeout, cfg.Retrans.EndpointRetries, cfg.Retrans.ScanEvery),
	}
	if cfg.DedupDelivery() {
		e.seen = make(map[uint64]struct{})
	}
	return e
}

// Attach wires the endpoint's links: toSw carries injected flits (credits
// return on it), fromSw carries ejected flits. inBufCap is the capacity of
// the switch end-port input buffer the credits mirror. The endpoint's
// queues move into pools, its switch's group's storage (nil: they stay in
// pools of its own). Only an endpoint with nothing queued moves.
func (e *Endpoint) Attach(toSw, fromSw *core.Link, inBufCap int, pools *core.Pools) {
	e.toSw = toSw
	e.fromSw = fromSw
	e.credits = buffer.NewCreditCounter(inBufCap, proto.NumNetVCs)
	if pools != nil {
		if e.queuedFlits != 0 || !e.ackQ.Empty() {
			panic("endpoint: attaching an endpoint with something queued")
		}
		e.pools = pools
	}
}

// Pools returns the pools the endpoint's queues draw from, making pools of
// its own for an endpoint attached to none.
func (e *Endpoint) Pools() *core.Pools {
	if e.pools == nil {
		e.pools = new(core.Pools)
	}
	return e.pools
}

// FlitLists, SendLists and ResendLists hand the endpoint's lists to the
// visit of the pool each draws from, for the pool audit: its ACK queue, its
// send queues and its resend queue.
func (e *Endpoint) FlitLists(visit func(*buffer.FlitList)) { visit(&e.ackQ) }

func (e *Endpoint) SendLists(visit func(*buffer.List[proto.PktDesc])) {
	for k := range e.active {
		visit(&e.active[k].q)
	}
}

func (e *Endpoint) ResendLists(visit func(*buffer.List[proto.Resend])) { visit(&e.rtxQ) }

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
	n, last := proto.Segment(flits)
	k, ok := e.queues[dst]
	if !ok {
		k = int32(len(e.active))
		e.queues[dst] = k
		e.active = append(e.active, sendQueue{dst: dst})
	}
	q, p := &e.active[k].q, e.Pools().Sends()
	for i := 1; i <= n; i++ {
		size := proto.MaxPacketFlits
		if i == n {
			size = last
		}
		q.Push(p, proto.PktDesc{Dst: dst, MsgID: msgID, Size: uint8(size), Class: class})
	}
	e.queuedFlits += int64(flits)
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
	e.outstanding.Scan(now, e.resendFired)
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
	w = min(w, e.outstanding.NextScan(now))
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

// resendFired is what a due source ACK timer, or a NACK, does: queue the
// packet for retransmission with backoff, or abandon it once the retry
// budget is spent.
func (e *Endpoint) resendFired(now sim.Tick, pktID uint64, o *outPkt) {
	if !e.outstanding.Retry(now, pktID, o) {
		e.abandon(pktID, o)
		return
	}
	e.rtxQ.Push(e.Pools().Resends(), proto.Resend{PktID: pktID, Size: o.desc.Size})
	e.queuedFlits += int64(o.desc.Size)
	e.Retransmits++
	if e.Collector != nil {
		e.Collector.Retransmit()
	}
}

// abandon gives up on an unacknowledged packet after retry exhaustion,
// releasing its transmission-window share so the destination is not
// permanently penalized.
func (e *Endpoint) abandon(pktID uint64, o *outPkt) {
	e.outstanding.Drop(pktID, o)
	e.Abandoned++
	if e.Collector != nil {
		e.Collector.RetransAbandon()
	}
	if e.cfg.ECN.Enabled {
		if w, ok := e.windows[o.desc.Dst]; ok {
			w.inflight = max(w.inflight-int(o.desc.Size), 0)
			e.setWindow(o.desc.Dst, w)
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
	e.ackQ.Push(e.Pools().Flits(), ack)
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
		return e.ackQ.Pop(e.pools.Flits()), true
	}
	for !e.rtxQ.Empty() {
		item := e.rtxQ.Pop(e.pools.Resends())
		o := e.outstanding.Get(item.PktID)
		if o == nil {
			// Acknowledged or abandoned while queued; drop its backlog share.
			e.queuedFlits -= int64(item.Size)
			continue
		}
		e.cur = curPkt{
			active:  true,
			retrans: true,
			desc:    o.desc,
			pktID:   item.PktID,
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
	sends := e.pools.Sends()
	for i := 0; i < scan; i++ {
		k := e.rrIdx + i
		if k >= n {
			k -= n
		}
		sq := &e.active[k]
		desc := *sq.q.Front(sends)
		if e.cfg.ECN.Enabled {
			w := e.window(sq.dst)
			e.growWindow(&w, now)
			fits := w.inflight+int(desc.Size) <= w.size
			if fits {
				w.inflight += int(desc.Size)
			}
			if e.setWindow(sq.dst, w); !fits {
				continue
			}
		}
		sq.q.Pop(sends)
		if sq.q.Empty() {
			// The drained queue is swap-removed from the active list.
			delete(e.queues, sq.dst)
			if last := n - 1; k != last {
				*sq = e.active[last]
				e.queues[sq.dst] = int32(k)
			}
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
		e.cur = curPkt{
			active: true,
			desc:   desc,
			pktID:  proto.MakePktID(e.ID, e.pktSeq),
			birth:  now,
		}
		e.pktSeq++
		e.InjectedPkts++
		if e.cfg.Retrans.Enabled {
			o := e.outstanding.Add(e.cur.pktID)
			o.desc = desc
			o.birth = now
			e.outstanding.Arm(now, e.cur.pktID, o)
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
		Dst:      c.desc.Dst,
		MsgID:    c.desc.MsgID,
		PktID:    c.pktID,
		Birth:    c.birth,
		Seq:      c.seq,
		Size:     c.desc.Size,
		Kind:     proto.Data,
		Class:    c.desc.Class,
		MidGroup: -1,
		Phase:    proto.PhaseInject,
	}
	if c.seq == 0 {
		f.Flags |= proto.FlagHead
		e.Tracer.Record(c.birth, metrics.EvInject, f.PktID, e.ID, -1, f.Src, f.Dst)
	}
	if c.seq == c.desc.Size-1 {
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
		if o := e.outstanding.Get(f.PktID); o != nil {
			e.outstanding.Drop(f.PktID, o)
		}
	} else if e.cfg.Retrans.Enabled && e.cfg.Mode != core.StashE2E {
		// NACK without a stash-resident copy: the source is the only
		// recovery path, so respond immediately rather than waiting for
		// the timer. In StashE2E the first-hop stash resends instead.
		if o := e.outstanding.Get(f.PktID); o != nil {
			e.resendFired(now, f.PktID, o)
		}
	}
	if !e.cfg.ECN.Enabled {
		return
	}
	w, held := e.windows[f.Src]
	if !held {
		if f.Flags&proto.FlagECN == 0 {
			return // a fresh window, which an unmarked ACK leaves fresh
		}
		w = window{size: e.cfg.ECN.WindowMax}
	}
	if f.Flags&proto.FlagNack == 0 {
		w.inflight = max(w.inflight-int(f.MsgID), 0) // MsgID carries the packet's size
	}
	if f.Flags&proto.FlagECN != 0 {
		e.growWindow(&w, now)
		w.size = w.size * e.cfg.ECN.DecreaseNum / e.cfg.ECN.DecreaseDen
		if w.size < e.cfg.ECN.WindowFloor {
			w.size = e.cfg.ECN.WindowFloor
		}
		w.lastGrow = now
		if e.Collector != nil {
			e.Collector.WindowShrink()
		}
	}
	e.setWindow(f.Src, w)
}

// window returns dst's ECN window: the one held, or a fresh one.
func (e *Endpoint) window(dst int32) window {
	if w, ok := e.windows[dst]; ok {
		return w
	}
	return window{size: e.cfg.ECN.WindowMax}
}

// setWindow stores dst's ECN window, or drops it when it equals a fresh
// one. A window's lastGrow does not count: growWindow overwrites it before
// any use while the window is at WindowMax, as it is in a fresh one.
func (e *Endpoint) setWindow(dst int32, w window) {
	if w.size == e.cfg.ECN.WindowMax && w.inflight == 0 {
		delete(e.windows, dst)
		return
	}
	e.windows[dst] = w
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
func (e *Endpoint) WindowOf(dst int32) int { return e.window(dst).size }
