package core

import (
	"fmt"
	"math/bits"

	"stashsim/internal/arb"
	"stashsim/internal/buffer"
	"stashsim/internal/fault"
	"stashsim/internal/metrics"
	"stashsim/internal/proto"
	"stashsim/internal/route"
	"stashsim/internal/sim"
	"stashsim/internal/topo"
)

// Counters aggregates per-switch event counts for probes and tests.
// Written only by the owning switch's Step; probes read them while the
// workers are parked at the barrier.
//
//stashsim:owner partition
type Counters struct {
	FlitsSwitched   int64 // flits that crossed the row bus
	FlitsSent       int64 // flits transmitted on output links
	StashStores     int64 // flits written into stash pools
	StashRetrieves  int64 // flits read back out of stash pools
	ECNMarks        int64 // packets marked by congested inputs
	CongestedCycles int64 // port-cycles spent in the congested state
	StashFullStalls int64 // cycles an input stalled on storage-VC backpressure
	E2ETracked      int64 // packets entered into end-to-end tracking
	E2EDeletes      int64 // stash copies freed by positive ACKs
	E2ERetransmits  int64 // retransmissions triggered by NACKs
	SidebandMsgs    int64 // bookkeeping messages carried by the side-band network
	CongStashed     int64 // packets absorbed by congestion stashing
	CongStashedVict int64 // victim-class packets absorbed (diagnostics)
	HoLAbsorbed     int64 // HoL-blocked packets diverted to stash at the input
	RetryTimeouts   int64 // switch-side ACK timeouts fired
	RetryAbandoned  int64 // tracked packets abandoned after retry exhaustion or copy loss
	StashCopiesLost int64 // live stash copies invalidated by injected bank failures
	StashBypassed   int64 // packets forwarded without a stash copy (bypass on full stash)

	// Erasure-coded stash banks (StashParity > 0).
	StashReconstructed int64 // bank-failed copies scheduled for rebuild from parity-group survivors
	StashReconFailed   int64 // parity-protected copies lost anyway (no rebuild space, or >=2 group losses)
	ParityGroupsSealed int64 // parity groups sealed (one XOR parity flit run minted each)
	StashDegradedReads int64 // stash read flits served via parity despite a busy bank
}

// Add adds every count of o into c.
func (c *Counters) Add(o *Counters) {
	src := o.fields()
	for i, f := range c.fields() {
		*f += *src[i]
	}
}

// tallies are the per-switch counts only the metrics registry reports
// (EnableMetrics names them; Counters and CreditStallCycles are the ones
// goldens and checkpoints pin). They are bumped like any counter, attached
// registry or not, and EnableMetrics zeroes them, so a registry reads what
// happened since it was attached. A checkpoint carries them through the
// registry's walk, and so only when one is attached.
//
//stashsim:owner partition
type tallies struct {
	cycles   int64   // switch cycles simulated (CreditCycles)
	svcFlits int64   // storage-VC flits crossing tile column channels
	rvcFlits int64   // retrieval-VC flits crossing tile column channels
	colFlits int64   // all flits crossing tile column channels
	jsqPick  []int64 // JSQ column-pick distribution (per tile column)
}

// routeLatch is the per-(input,VC) wormhole state holding the routing
// decision of the packet currently crossing the row bus.
//
//stashsim:owner partition
type routeLatch struct {
	active   bool
	started  bool // head flit has left the input buffer
	eject    bool
	redirect bool  // congestion mode: packet diverted entirely to stash
	out      uint8 // output port of the normal path
	vc       uint8 // switch-internal (and outgoing-channel) VC
	stashCol int8  // tile column of the stash path; -1 when none
}

//stashsim:owner partition
type inPort struct {
	id        int            //stashsim:derived -- structural; rebuilt from the configuration
	class     topo.LinkClass //stashsim:derived -- structural; rebuilt from the configuration
	isEnd     bool           //stashsim:derived -- structural; rebuilt from the configuration
	link      *Link
	buf       buffer.DAMQ
	latch     [proto.NumNetVCs]routeLatch
	arbiter   arb.RoundRobin // NumNetVCs input VCs + 1 retrieval candidate
	congested bool
	congestAt int  //stashsim:derived -- structural: the ECN occupancy threshold in flits, from the configuration
	sVC       int8 // input VC holding the storage stream (-1 free)
	mem       buffer.BankedMem
}

// A wormhole lock is one bit of a VC mask: bit vc of a tile's outLock[o]
// is held by the packet crossing tile output o on VC vc, so flits of
// different packets never interleave on one column channel VC; bit vc of
// an output port's muxLock by the packet whose flits the output
// multiplexer is moving onto output-buffer VC vc, from one column buffer.
// A lock holds no packet: a row or column buffer is a FIFO that holds
// every flit of a packet in order, so a body flit at its front belongs to
// the packet that took the lock with its head (invariant law 7).
const _ uint8 = 1 << (proto.NumVCs - 1) // a VC mask fits a byte

// stashLatch pins the JSQ-chosen stash port for the S-VC packet currently
// crossing a tile from one input slot.
//
//stashsim:owner partition
type stashLatch struct {
	port   uint8
	active bool
}

// tile is one crossbar tile; its per-slot and per-output slices are carved
// from backing arrays NewSwitch allocates once for all the switch's tiles.
//
//stashsim:owner partition
type tile struct {
	row, col int                             //stashsim:derived -- structural; rebuilt from the configuration
	rowBufs  [][proto.NumVCs]buffer.FlitList // [TileIn]
	alloc    *arb.Separable
	vcNext   []uint8      // per-slot stream rotation pointer
	outLock  []uint8      // [TileOut] VC mask of held wormhole locks
	sLatch   []stashLatch // per slot
	occupied int          //stashsim:derived -- total queued flits (activity gate); decoding pushes them through linkTile
	slotOcc  []uint16     //stashsim:derived -- per-slot bitmask of non-empty streams; decoding pushes their flits through linkTile
	reqScr   []uint64     //stashsim:transient -- scratch request masks; stepTile recomputes them
	candScr  []uint8      //stashsim:transient -- scratch candidate stream per (slot, out), at slot*TileOut+out; stepTile recomputes it
	grants   int64        //stashsim:transient -- column-channel grants since EnableMetrics; the registry walks it
}

//stashsim:owner partition
type outPort struct {
	id      int            //stashsim:derived -- structural; rebuilt from the configuration
	class   topo.LinkClass //stashsim:derived -- structural; rebuilt from the configuration
	isEnd   bool           //stashsim:derived -- structural; rebuilt from the configuration
	link    *Link          //stashsim:derived -- wiring; a link is walked by its consumer side
	buf     buffer.OutBuf
	colBufs [][proto.NumVCs]buffer.FlitList // [Rows]
	colOcc  int                             //stashsim:derived -- total flits in column buffers (activity gate); decoding pushes them through linkCol
	colMask uint64                          //stashsim:derived -- bitmask of non-empty (row*NumVCs+vc) buffers; decoding pushes their flits through linkCol
	muxLock uint8                           // VC mask of held output-buffer VC locks
	muxArb  arb.RoundRobin                  // Rows*NumVCs candidates
	sendArb arb.RoundRobin                  // network VCs
	// credits mirrors the downstream input buffer when credited is set;
	// an endpoint sinks flits without credits.
	credits  buffer.CreditCounter
	credited bool //stashsim:derived -- wiring; set when the link is attached
	acc      int
	accTick  int64 // last cycle the serialization accumulator advanced
	mem      buffer.BankedMem
	rtt      int64 //stashsim:derived -- structural; rebuilt from the configuration
}

// e2eEntry tracks one outstanding packet at its originating end port, a
// record of the switch's ledger (fault.Ledger), which holds its ACK timer
// when Retrans is enabled.
//
//stashsim:owner partition
type e2eEntry struct {
	fault.Timer
	size      uint8
	port      uint8 // the originating end port, the source endpoint's
	stashPort int16 // -1 until the location message arrives
	acked     bool
	nacked    bool
	lost      bool // the stash copy was invalidated by a bank failure
	recon     bool // a parity reconstruction of the copy is in flight
}

// Switch is one tiled (optionally stashing) switch instance. All of its
// state is private to the worker that steps its block; cross-switch
// traffic goes through Links, never through another Switch's fields (but
// for the wake slot, the per-port due slots and the pools a link's paths
// live in, which a direct Link push from a switch of the same worker
// lowers or fills).
//
//stashsim:owner partition
type Switch struct {
	ID     int //stashsim:derived -- structural; rebuilt from the configuration
	cfg    *Config
	router *route.Router
	rng    *sim.RNG

	// CreditStallCycles counts output cycles stalled with flits queued but
	// no downstream credits. It is deliberately NOT part of Counters, whose
	// JSON shape is pinned by the golden tests. Written only by this
	// switch's Step; read by barrier observers.
	CreditStallCycles int64

	radix int
	// tileOutOf is cfg.TileOutOf per output port, tabulated so the tile
	// allocator's candidate loop does not divide by a run-time value.
	//
	//stashsim:derived -- structural; rebuilt from the configuration
	tileOutOf [64]uint8
	in        []inPort
	out       []outPort
	tiles     []tile              // Rows*Cols, row-major
	stash     []*buffer.StashPool // per port; nil-capacity pools allowed

	// pools is the storage of the switch's group, which every queue of the
	// switch draws from, its side band included, and every path of the
	// links it owns (Link says which).
	//
	//stashsim:derived -- storage, not state: decoding pushes every queued value into a fresh pool, and slot numbers decide nothing
	pools    *Pools
	sideband buffer.TimedList[sbMsg]
	// track holds the packets this switch's end ports injected that are
	// not yet acknowledged, keyed by packet ID (which names the source and
	// so the end port), with their stash-resend timers.
	track fault.Ledger[e2eEntry, *e2eEntry]

	// Erasure-coded stash banks (cfg.StashParity > 0): parity tracks the
	// groups striped across this switch's banks; reconQ holds in-flight
	// reconstructions of bank-failed members (populated only by the serial
	// fault hook, drained by Step).
	parity *buffer.ParityTracker
	reconQ []reconRec

	// Active-set masks: tileOcc has a bit per tile with queued flits, muxOcc
	// a bit per output port with occupied column buffers, inActive a bit per
	// input port with buffered flits or pending stash retrievals, outActive
	// a bit per output port with queued or retention-held flits. Step walks
	// their set bits instead of touching every tile and port struct, so a
	// quiet region of the switch costs no cache traffic at all.
	tileOcc   uint64 //stashsim:derived -- set by linkTile as decoding pushes the row buffers
	muxOcc    uint64 //stashsim:derived -- set by linkCol as decoding pushes the column buffers
	inActive  uint64 //stashsim:derived -- decoding sets it by inBusy from the rebuilt input buffers and retrieval queues
	outActive uint64 //stashsim:derived -- decoding sets it by outBusy from the rebuilt output buffers

	// wake is this switch's slot in its block's wake table (see
	// sim.Stepper.NextWake and SetWakeSlot); input that reaches the switch
	// by any way other than a link lowers it by hand.
	//
	//stashsim:transient -- wake-table slot; a restored run starts all awake
	wake *sim.Tick

	// flitDue and credDue are the per-port due slots: flitDue[p] is a lower
	// bound on the due cycle of the oldest flit on input port p's link,
	// credDue[p] on that of the oldest returned or synthesized credit on
	// output port p's link. The link lowers them wherever it lowers the
	// wake slot; Step probes only the ports whose slot has come due and
	// resets each probed slot to its path's due cycle, and NextWake is their
	// minimum. Zero — probe — is always correct.
	//
	//stashsim:transient -- derived from the link paths; SetWakeSlot zeroes them, so a restored or repartitioned run probes every port once
	flitDue []sim.Tick
	credDue []sim.Tick //stashsim:transient -- derived from the link paths; SetWakeSlot zeroes them, so a restored or repartitioned run probes every port once

	// created counts flits minted inside this switch: end-to-end stash
	// duplicates dropped off the row bus and retransmission copies taken
	// from retained store entries. The invariant checker balances it
	// against the stash pools' freed counts and the resident population.
	created int64

	Counters Counters

	tally  tallies         //stashsim:transient -- counted since EnableMetrics; the registry walks them
	tracer *metrics.Tracer //stashsim:transient -- debugging sink; its output stream cannot resume mid-run
}

// Pools is the storage of one dragonfly group, the executor's block: the
// flit pool every flit queue of the group's switches and endpoints draws
// from — the input DAMQs, the row and column buffers, the output buffers,
// the stash retrieval queues and retained payloads, the endpoints' ACK
// queues — together with every flit on the wire towards the group's
// switches or endpoints; the credit pool of every credit on the wire
// towards them; the pool of the switches' side-band messages; and the
// pools of the endpoints' send-queue packets and resend items. So a stage
// move and a link arrival relink a slot, and only a push onto a link, a
// stash copy or a retransmission copies a flit in. One worker steps a whole
// group, so a group's pools are touched by one goroutine. A pool grows to
// the most its group held at once, rounded up to a chunk: the parts of a
// group do not all peak together, so the group holds less than their own
// pools would, and a part with nothing queued holds nothing.
type Pools struct {
	flits    buffer.FlitPool
	creds    CreditPool
	sideband buffer.Pool[sbMsg]
	sends    buffer.Pool[proto.PktDesc]
	resends  buffer.Pool[proto.Resend]
}

// Flits, Sends and Resends are the pools an endpoint's queues draw from:
// its ACK queue, its send queues and its resend queue.
func (p *Pools) Flits() *buffer.FlitPool             { return &p.flits }
func (p *Pools) Sends() *buffer.Pool[proto.PktDesc]  { return &p.sends }
func (p *Pools) Resends() *buffer.Pool[proto.Resend] { return &p.resends }

// NewSwitch builds switch id under the shared configuration, drawing on
// pools, its group's storage (nil: pools of its own). Links are attached
// afterwards by the network wiring (AttachInLink/AttachOutLink).
func NewSwitch(id int, cfg *Config, rng *sim.RNG, pools *Pools) *Switch {
	if pools == nil {
		pools = new(Pools)
	}
	d := cfg.Topo
	radix := d.Radix()
	if cfg.Rows*cfg.Cols > 64 || radix > 64 {
		panic("core: switch exceeds the 64-tile/64-port active-set masks")
	}
	// Each slice kind of every port and tile is carved from one backing
	// array, so a switch costs a few dozen allocations however wide it is.
	nt := cfg.Rows * cfg.Cols
	dues := make([]sim.Tick, 2*radix)
	s := &Switch{
		ID:      id,
		cfg:     cfg,
		router:  route.New(d, cfg.Route, rng.Derive(uint64(id)*2+1)),
		rng:     rng.Derive(uint64(id) * 2),
		radix:   radix,
		in:      make([]inPort, radix),
		out:     make([]outPort, radix),
		flitDue: dues[:radix:radix],
		credDue: dues[radix:],
		tiles:   make([]tile, nt),
		stash:   make([]*buffer.StashPool, radix),
		track:   fault.NewLedger[e2eEntry](cfg.Retrans.SwitchTimeout, cfg.Retrans.SwitchRetries, cfg.Retrans.ScanEvery),
		tally:   tallies{jsqPick: make([]int64, cfg.Cols)},
		pools:   pools,
	}
	colBufs := make([][proto.NumVCs]buffer.FlitList, radix*cfg.Rows)
	banks := make([]buffer.StashPool, radix)
	// The ports' retention bitmaps and the tiles' request scratch are the
	// switch's words, carved from one backing array.
	nw := nt * cfg.TileIn
	for p := 0; p < radix; p++ {
		nw += buffer.RetentionWords(2 * cfg.Lat.Of(d.PortClass(p)))
	}
	words := make([]uint64, nw)
	for p := 0; p < radix; p++ {
		class := d.PortClass(p)
		ip := &s.in[p]
		ip.id = p
		ip.class = class
		ip.isEnd = class == topo.Endpoint
		ip.buf = buffer.NewDAMQIn(&s.pools.flits, cfg.NormalInCap(class), proto.NumNetVCs)
		ip.arbiter = arb.NewRoundRobin(proto.NumNetVCs + 1)
		ip.congestAt = int(cfg.ECN.CongestFrac * float64(ip.buf.Capacity()))
		ip.sVC = -1
		ip.mem.Ideal = !cfg.BankModel

		op := &s.out[p]
		op.id = p
		op.class = class
		op.isEnd = class == topo.Endpoint
		op.rtt = 2 * cfg.Lat.Of(class)
		window := buffer.NewRetention(op.rtt, carve(&words, buffer.RetentionWords(op.rtt)))
		op.buf = buffer.NewOutBuf(&s.pools.flits, cfg.NormalOutCap(class), proto.NumNetVCs, window)
		op.colBufs = carve(&colBufs, cfg.Rows)
		op.muxArb = arb.NewRoundRobin(cfg.Rows * proto.NumVCs)
		op.sendArb = arb.NewRoundRobin(proto.NumNetVCs)
		op.mem.Ideal = !cfg.BankModel
		op.accTick = -1
		s.tileOutOf[p] = uint8(cfg.TileOutOf(p))

		banks[p] = *buffer.NewStashPoolIn(&s.pools.flits, cfg.StashCap(class), cfg.RetainPayload) // inlined: the copy allocates nothing
		s.stash[p] = &banks[p]
	}
	var (
		rowBufs = make([][proto.NumVCs]buffer.FlitList, nt*cfg.TileIn)
		outLock = make([]uint8, nt*cfg.TileOut)
		vcNext  = make([]uint8, nt*cfg.TileIn)
		sLatch  = make([]stashLatch, nt*cfg.TileIn)
		slotOcc = make([]uint16, nt*cfg.TileIn)
		reqScr  = words
		candScr = make([]uint8, nt*cfg.TileIn*cfg.TileOut)
		allocs  = arb.NewSeparables(nt, cfg.TileIn, cfg.TileOut)
	)
	for i := range s.tiles {
		t := &s.tiles[i]
		t.row, t.col = i/cfg.Cols, i%cfg.Cols
		t.rowBufs = carve(&rowBufs, cfg.TileIn)
		t.outLock = carve(&outLock, cfg.TileOut)
		t.vcNext = carve(&vcNext, cfg.TileIn)
		t.sLatch = carve(&sLatch, cfg.TileIn)
		t.slotOcc = carve(&slotOcc, cfg.TileIn)
		t.reqScr = carve(&reqScr, cfg.TileIn)
		t.candScr = carve(&candScr, cfg.TileIn*cfg.TileOut)
		t.alloc = &allocs[i]
	}
	if cfg.StashParity > 0 {
		s.parity = buffer.NewParityTracker(cfg.StashParity, s.stash)
	}
	return s
}

// carve cuts the next n elements off *backing, capped so that an append
// cannot reach its neighbour's.
func carve[T any](backing *[]T, n int) []T {
	s := (*backing)[:n:n]
	*backing = (*backing)[n:]
	return s
}

// AttachInLink wires the incoming link of input port p, and the port's
// due slot into it. The link's flits move into the switch's group's pool,
// and on an endpoint port its credits too: the group's worker steps the
// endpoint that consumes them.
func (s *Switch) AttachInLink(p int, l *Link) {
	s.in[p].link = l
	l.flitDue = &s.flitDue[p]
	l.bindFlits(&s.pools.flits)
	if s.in[p].isEnd {
		l.bindCredits(&s.pools.creds)
	}
}

// AttachOutLink wires the outgoing link of output port p, and the port's
// credit due slot into it. The link's credits move into the switch's
// group's pool, and on an endpoint port its flits too. The credit counter mirrors the
// downstream input buffer; pass zero capacity for endpoint-facing ports
// (endpoints sink flits without credits).
func (s *Switch) AttachOutLink(p int, l *Link, downstreamCap int) {
	op := &s.out[p]
	op.link = l
	l.credDue = &s.credDue[p]
	l.bindCredits(&s.pools.creds)
	if op.isEnd {
		l.bindFlits(&s.pools.flits)
	}
	if downstreamCap > 0 {
		op.credits = buffer.NewCreditCounter(downstreamCap, proto.NumNetVCs)
		op.credited = true
	}
}

// SetWakeSlot hands the switch its wake-table slot and wires it into every
// attached link: flits arriving on an input link and credits returning on
// an output link are this switch's input. Called by the network's
// repartition, at a barrier — which may have flushed staged entries onto
// the paths without a slot store, so every port's due slot is zeroed too,
// like the fresh wake table.
//
//stashsim:phase serial
func (s *Switch) SetWakeSlot(w *sim.Tick) {
	s.wake = w
	clear(s.flitDue)
	clear(s.credDue)
	for p := 0; p < s.radix; p++ {
		s.in[p].link.WakeFlits(w)
		s.out[p].link.WakeCredits(w)
	}
}

// wakeBy lowers a wake-table slot (nil: not wired) to at, if that is
// sooner: what every hand-over of input to a possibly sleeping component
// does — the link pushes and epoch drains, the bank-failure hook.
//
//stashsim:noalloc
func wakeBy(slot *sim.Tick, at sim.Tick) {
	if slot != nil && at < *slot {
		*slot = at
	}
}

// Config returns the shared configuration.
func (s *Switch) Config() *Config { return s.cfg }

// OutputQueue implements route.Oracle: the occupancy signal used by the
// adaptive routing decision is the count of flits awaiting transmission at
// an output port plus its column-buffer backlog.
func (s *Switch) OutputQueue(port int) int {
	return s.out[port].buf.Queued() + s.out[port].colOcc
}

// StashUsed returns the committed stash occupancy in flits across the
// switch (including packet reservations in flight).
func (s *Switch) StashUsed() int {
	total := 0
	for _, p := range s.stash {
		total += p.Used()
	}
	return total
}

// StashReserved returns the switch-wide total of in-flight stash
// reservations (granted, not yet fully arrived).
func (s *Switch) StashReserved() int {
	total := 0
	for _, p := range s.stash {
		total += p.Reserved()
	}
	return total
}

// StashCapTotal returns the switch's total usable stash capacity.
func (s *Switch) StashCapTotal() int {
	total := 0
	for _, p := range s.stash {
		total += p.Capacity()
	}
	return total
}

// FlitPool exposes the flit storage of the switch's group, and CreditPool
// its storage of credits on the wire, for tests and probes.
func (s *Switch) FlitPool() *buffer.FlitPool { return &s.pools.flits }
func (s *Switch) CreditPool() *CreditPool    { return &s.pools.creds }

// flitLists hands every list of the switch's own that draws from its
// group's flit pool to visit, for the pool audit: its queues, the retained payloads of its stash
// banks and of its in-flight reconstructions, and the forward path of
// every link it consumes or feeds an endpoint over.
func (s *Switch) flitLists(visit func(*buffer.FlitList)) {
	for p := range s.in {
		if l := s.in[p].link; l != nil {
			visit(l.flits.Slots())
		}
		if l := s.out[p].link; l != nil && s.out[p].isEnd {
			visit(l.flits.Slots())
		}
		s.in[p].buf.AuditLists(visit)
		s.out[p].buf.AuditLists(visit)
		s.stash[p].AuditLists(visit)
		for r := range s.out[p].colBufs {
			for vc := range s.out[p].colBufs[r] {
				visit(&s.out[p].colBufs[r][vc])
			}
		}
	}
	for t := range s.tiles {
		for slot := range s.tiles[t].rowBufs {
			for stream := range s.tiles[t].rowBufs[slot] {
				visit(&s.tiles[t].rowBufs[slot][stream])
			}
		}
	}
	for i := range s.reconQ {
		visit(&s.reconQ[i].payload)
	}
}

// creditLists hands every credit path of the switch's own that draws from
// its group's credit pool to visit, for the pool audit: both paths of every link it sends on,
// and of every link an endpoint sends to it over.
func (s *Switch) creditLists(visit func(*buffer.List[proto.Credit])) {
	paths := func(l *Link) {
		visit(l.credits.Slots())
		visit(l.synth.Slots())
	}
	for p := range s.out {
		if l := s.out[p].link; l != nil {
			paths(l)
		}
		if l := s.in[p].link; l != nil && s.in[p].isEnd {
			paths(l)
		}
	}
}

// AuditSideband exposes the side band and the pool of the switch's group
// it draws from, for the pool audit's tests.
func (s *Switch) AuditSideband() (*buffer.Pool[sbMsg], *buffer.TimedList[sbMsg]) {
	return &s.pools.sideband, &s.sideband
}

// PortStash exposes a port's stash pool for tests and probes.
func (s *Switch) PortStash(port int) *buffer.StashPool { return s.stash[port] }

// Parity exposes the parity tracker (nil unless StashParity > 0) for
// tests and probes.
func (s *Switch) Parity() *buffer.ParityTracker { return s.parity }

// PendingReconstructions returns the number of in-flight parity rebuilds,
// reported by the stall watchdog's Note hook during bank-failure drains.
func (s *Switch) PendingReconstructions() int { return len(s.reconQ) }

// TrackedPackets returns the number of outstanding end-to-end tracking
// entries across all end ports.
func (s *Switch) TrackedPackets() int { return s.track.Len() }

// AuditInBuf exposes an input port's normal buffer for the invariant
// checker's credit-conservation audit.
func (s *Switch) AuditInBuf(port int) *buffer.DAMQ { return &s.in[port].buf }

// AuditOutCredits exposes an output port's credit counter (nil for
// endpoint-facing ports, which sink flits without credits).
func (s *Switch) AuditOutCredits(port int) *buffer.CreditCounter {
	if op := &s.out[port]; op.credited {
		return &op.credits
	}
	return nil
}

// AuditOutLink exposes an output port's link (nil when unwired).
func (s *Switch) AuditOutLink(port int) *Link { return s.out[port].link }

// auditResident counts every flit resident in the switch's structures:
// input DAMQs, tile row buffers, column buffers, output queues (the
// retention window holds placeholders, not flits), and stash pools.
func (s *Switch) auditResident() int {
	n := 0
	for p := range s.in {
		n += s.in[p].buf.Used()
	}
	for t := range s.tiles {
		n += s.tiles[t].occupied
	}
	for p := range s.out {
		n += s.out[p].colOcc + s.out[p].buf.Queued()
	}
	for _, pool := range s.stash {
		n += pool.PresentFlits()
	}
	return n
}

// auditFreed returns the cumulative flits destroyed by stash deletions.
func (s *Switch) auditFreed() int64 {
	var n int64
	for _, pool := range s.stash {
		n += pool.FreedFlits()
	}
	return n
}

// BankConflicts returns the total bank-conflict stalls across all port
// memories.
func (s *Switch) BankConflicts() int64 {
	var n int64
	for p := range s.in {
		n += s.in[p].mem.Conflicts + s.out[p].mem.Conflicts
	}
	return n
}

// EnableMetrics names this switch's counts and gauges in the given
// registry, under scope "sw<id>" (and per-tile "sw<id>.tile<r>.<c>"
// scopes), and zeroes the tallies only a registry reports. Call at a
// barrier; a nil registry is a no-op.
func (s *Switch) EnableMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.tally = tallies{jsqPick: make([]int64, s.cfg.Cols)}
	c, t := &s.Counters, &s.tally
	sc := reg.Scope(fmt.Sprintf("sw%d", s.ID))
	sc.Counter("cycles", &t.cycles)
	sc.Counter("svc.flits", &t.svcFlits)
	sc.Counter("rvc.flits", &t.rvcFlits)
	sc.Counter("col.flits", &t.colFlits)
	sc.Counter("credit.stall.cycles", &s.CreditStallCycles)
	sc.Counter("hol.absorbed", &c.HoLAbsorbed)
	sc.Counter("stash.stores", &c.StashStores)
	sc.Counter("stash.retrieves", &c.StashRetrieves)
	sc.Counter("stash.full.stalls", &c.StashFullStalls)
	if s.parity != nil {
		sc.Counter("stash.recon.started", &c.StashReconstructed)
		sc.Counter("stash.recon.failed", &c.StashReconFailed)
		sc.Counter("stash.parity.sealed", &c.ParityGroupsSealed)
		sc.Counter("stash.degraded.reads", &c.StashDegradedReads)
	}
	for col := range t.jsqPick {
		sc.Counter(fmt.Sprintf("jsq.pick.col%d", col), &t.jsqPick[col])
	}
	// Column-bandwidth utilization: fraction of tile->column channel slots
	// that carried a flit. The denominator is the aggregate column channel
	// capacity (one flit per tile output per row per cycle).
	colChans := float64(s.cfg.Rows * s.cfg.Cols * s.cfg.TileOut)
	sc.Gauge("col.util", func() float64 {
		if t.cycles == 0 {
			return 0
		}
		return float64(t.colFlits) / (float64(t.cycles) * colChans)
	})
	sc.Gauge("stash.fill", func() float64 {
		if cap := s.StashCapTotal(); cap > 0 {
			return float64(s.StashUsed()) / float64(cap)
		}
		return 0
	})
	for i := range s.tiles {
		tile := &s.tiles[i]
		tile.grants = 0
		reg.Scope(fmt.Sprintf("sw%d.tile%d.%d", s.ID, tile.row, tile.col)).Counter("grants", &tile.grants)
	}
}

// CreditCycles adds n simulated cycles to the "cycles" tally. The network
// credits it from its clock at every epoch barrier, so the count (and
// col.util's denominator) does not depend on how often Step ran: a switch
// that slept through a cycle still simulated it.
//
//stashsim:phase serial
func (s *Switch) CreditCycles(n int64) { s.tally.cycles += n }

// SetTracer attaches (or, with nil, detaches) the packet-lifecycle tracer.
func (s *Switch) SetTracer(t *metrics.Tracer) { s.tracer = t }

// Busy reports whether any flit is resident anywhere inside the switch
// (input buffers, tiles, column buffers, or output buffers). Used by the
// stall watchdog to pick which switches to dump.
func (s *Switch) Busy() bool {
	for p := range s.in {
		if s.in[p].buf.Used() > 0 {
			return true
		}
	}
	for t := range s.tiles {
		if s.tiles[t].occupied > 0 {
			return true
		}
	}
	for p := range s.out {
		if s.out[p].colOcc > 0 || s.out[p].buf.Used() > 0 {
			return true
		}
	}
	return false
}

// BufferFill returns the aggregate normal input- and output-buffer
// occupancy and capacity in flits, for the occupancy sampler.
func (s *Switch) BufferFill() (inUsed, inCap, outUsed, outCap int) {
	for p := range s.in {
		inUsed += s.in[p].buf.Used()
		inCap += s.in[p].buf.Capacity()
	}
	for p := range s.out {
		outUsed += s.out[p].buf.Used()
		outCap += s.out[p].buf.Capacity()
	}
	return
}

// The switch is a sim.Stepper so the network can drive it through the
// parallel executor; it communicates only over latency>=1 links, which is
// the property the executor's partitioning relies on.
var _ sim.Stepper = (*Switch)(nil)

// Step advances the switch one cycle. Stages run in reverse pipeline order
// so a flit advances at most one stage per cycle; arrivals are folded in
// last so flits that land at cycle t first compete for the row bus at t+1.
//
// Each stage iterates only its active set: a port or tile is stepped when
// an event is pending for it — queued or retention-held flits, a non-empty
// retrieval queue — and costs nothing otherwise; the activity masks are
// maintained by the owner at every site that queues work for a port. Links
// are probed through the dense per-port due slots (flitDue, credDue): the
// credit and arrival walks read one slot per port and touch a link's path
// only when its slot has come due, and a switch with nothing due on a
// link and nothing queued is not stepped at all (NextWake). Any per-cycle
// state a skipped stage would have advanced is reconstructed
// deterministically on wake — the output serialization accumulator catches
// up in stepOutput (accTick), and an idle input port's ECN congested flag
// is cleared when its activity bit clears, which is exactly what
// stepRowBus would compute for an empty buffer. Skipped stages are
// otherwise provably no-ops: every arbiter pointer advances only on
// grants, and grants require a non-empty request set.
//
// Step is the switch's parallel-phase entry: it runs concurrently with
// every other component's Step and must stay allocation-free in the
// steady state (sim.Stepper's contract).
//
//stashsim:phase parallel
//stashsim:noalloc
func (s *Switch) Step(now sim.Tick) {
	s.track.Scan(now, s.retryFired)
	if len(s.reconQ) > 0 {
		s.stepRecon(now)
	}
	if s.sideband.Len() > 0 {
		s.stepSideband(now)
	}
	// Fold due credit returns, receiver-sent and fault-synthesized, straight
	// into the counters, on the ports whose slot has come due.
	for p, due := range s.credDue {
		if due > now {
			continue
		}
		op := &s.out[p]
		if op.credited {
			op.link.RecvCreditsInto(now, &op.credits)
		}
		s.credDue[p] = op.link.NextCreditAt()
	}
	// Mask walks visit active ports/tiles in ascending index order — the
	// same order the full scans visited, so arbitration is unchanged. Bits
	// set mid-walk (a tile feeding a mux) are picked up next cycle, exactly
	// as the one-stage-per-cycle pipeline requires.
	for m := s.outActive; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		op := &s.out[p]
		// A port with only retention-held flits sleeps until its front
		// entry is due; the activity bit keeps it in the walk meanwhile.
		if op.buf.Queued() == 0 && !op.buf.ReleaseDue(now) {
			continue
		}
		s.stepOutput(now, op)
		if !s.outBusy(p) {
			s.outActive &^= 1 << uint(p)
		}
	}
	for m := s.muxOcc; m != 0; m &= m - 1 {
		s.stepMux(now, &s.out[bits.TrailingZeros64(m)])
	}
	for m := s.tileOcc; m != 0; m &= m - 1 {
		s.stepTile(now, &s.tiles[bits.TrailingZeros64(m)])
	}
	for m := s.inActive; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		ip := &s.in[p]
		s.stepRowBus(now, ip)
		if !s.inBusy(p) {
			s.inActive &^= 1 << uint(p)
			// An empty buffer is never over the ECN threshold.
			ip.congested = false
		}
	}
	// Arrivals: links whose slot, and then whose front flit, is due.
	for p, due := range s.flitDue {
		if due > now {
			continue
		}
		ip := &s.in[p]
		if ip.link.flits.FrontDue(now) {
			s.stepArrivals(now, ip)
			if ip.buf.Used() > 0 {
				s.inActive |= 1 << uint(p)
			}
		}
		s.flitDue[p] = ip.link.NextFlitAt()
	}
}

// inBusy and outBusy are the rules of inActive and outActive: Step clears
// a port's bit when its rule fails, and decoding sets the bits by them.
//
//stashsim:noalloc
func (s *Switch) inBusy(p int) bool { return s.in[p].buf.Used() > 0 || s.stash[p].RetrLen() > 0 }

//stashsim:noalloc
func (s *Switch) outBusy(p int) bool { b := &s.out[p].buf; return b.Queued() > 0 || b.Retained() > 0 }

// NextWake implements sim.Stepper: the switch is busy next cycle while any
// flit is queued in it (inputs, tiles, column or output buffers, stash
// retrievals — those stages count stalls per cycle); otherwise Step is a
// no-op until the earliest of the timed things it holds comes due: a
// retention release, a credit or flit on a link (its port's due
// slot), a side-band message, a parity rebuild, or the next scan of armed
// retry timers.
//
//stashsim:phase parallel
//stashsim:noalloc
func (s *Switch) NextWake(now sim.Tick) sim.Tick {
	if s.tileOcc|s.muxOcc|s.inActive != 0 {
		return now + 1
	}
	w := sim.Never
	for m := s.outActive; m != 0; m &= m - 1 {
		b := &s.out[bits.TrailingZeros64(m)].buf
		if b.Queued() > 0 {
			return now + 1
		}
		w = min(w, b.NextRelease())
	}
	for p, due := range s.flitDue {
		w = min(w, due, s.credDue[p])
	}
	w = min(w, s.sideband.NextAt())
	for i := range s.reconQ {
		w = min(w, s.reconQ[i].due)
	}
	w = min(w, s.track.NextScan(now))
	return max(w, now+1)
}
