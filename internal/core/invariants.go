package core

import (
	"fmt"
	"io"
	"math/bits"
	"os"
	"strconv"

	"stashsim/internal/buffer"
	"stashsim/internal/metrics"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
)

// Invariants is the runtime checker for the simulator's conservation
// laws. It is always compiled in and costs nothing until attached; when
// enabled (the -invariants flag, or by default in the network tests) it
// audits the global state every Every cycles:
//
//  1. Flit conservation: flits injected by endpoints plus flits minted
//     inside switches (stash duplicates, retransmission copies) equal
//     flits ejected at endpoints, freed by stash deletions or dropped by
//     link faults (fault.LinkFault.FlitsDropped), plus the population
//     resident in links, buffers, tiles, and pools.
//  2. Credit conservation: on every credited edge, for each VC, the
//     sender's free reserved credits plus in-flight flits and credits
//     plus the receiver's reserved occupancy equal the reserved quota —
//     and likewise for the shared pool.
//  3. Stash occupancy: no pool exceeds its capacity, and a switch with
//     zero stash capacity holds no stashed flits.
//  4. S/R confinement: the storage and retrieval VCs are switch-internal;
//     no flit on any link carries one, and a switch without stash
//     capacity has no occupied S/R column streams.
//  5. Parity accounting: with parity groups enabled, every live parity
//     flit's group is accounted — per-bank parity occupancy equals the
//     sealed groups' parity placed there, every group member is a live
//     completed copy in its recorded bank, and the membership index is
//     consistent. (Parity flits enter conservation through the pools'
//     PresentFlits/FreedFlits and the switches' created counts, so law 1
//     already balances them.)
//  6. Pools: in every group, each pool of its Pools has its slots in use
//     equal to what its lists hold — its switches' own queues, the retained
//     stash payloads (stored, filling, or carried by an in-flight
//     reconstruction), the link paths they own (Link says which), their
//     side bands, and their endpoints' ACK, send and resend queues —
//     in-use plus free slots make up its capacity, and every slot sits on
//     exactly one list: a queue, a payload, a link path or the free stack.
//     A leaked slot or one linked twice would let two queues, or a queue
//     and the wire, share a flit or a credit, and a retained payload
//     whose slot was freed would retransmit whatever flit took it next.
//  7. Wormhole locks: a body flit at the front of a tile's row-buffer
//     stream holds its (tile output, VC) lock bit, and one at the front of
//     an output port's column buffer holds the port's multiplexer lock bit
//     for its output-buffer VC, and no two such fronts share a lock. A lock
//     records no packet, so this is what says that the packet holding it
//     is the one whose body flits wait behind it.
//
// The laws are state-based, so sparse audits (Every > 1) still converge
// on any corruption the next time they run. On the first violation the
// checker writes the offending switch's DumpState to Out (os.Stderr by
// default) and panics.
type Invariants struct {
	// Every is the audit interval in cycles; values below one audit every
	// cycle.
	//
	//stashsim:derived -- configuration, set by the wiring that builds the checker
	Every int64

	// Out receives the violation report and state dump (default stderr).
	//
	//stashsim:derived -- configuration, set by the wiring that builds the checker
	Out io.Writer

	// Switches and ExtLinks (the endpoint→switch injection links) cover
	// every flit-holding structure exactly once: each switch enumerates
	// its own out-links.
	//
	//stashsim:derived -- wiring, rebuilt from the network's link table
	Switches []*Switch
	ExtLinks []*Link //stashsim:derived -- wiring, rebuilt from the network's link table

	// ExtLists are the endpoints, whose queues draw from their switch's
	// group's pools, in the order of Switches: the endpoints of a group
	// are a run, as its switches are.
	//
	//stashsim:derived -- wiring, rebuilt from the network's endpoints
	ExtLists []PoolUser

	// Edges lists every credited (sender, link, receiver-buffer) triple.
	//
	//stashsim:derived -- wiring, rebuilt from the network's link table
	Edges []CreditEdge

	// ExtCreated and ExtDestroyed report the cumulative flits injected
	// and ejected by the endpoints.
	//
	//stashsim:derived -- wiring, closures over the network's endpoints
	ExtCreated   func() int64
	ExtDestroyed func() int64 //stashsim:derived -- wiring, closures over the network's endpoints

	// FlushWire lands every link entry the epoch executor staged on its
	// path before an audit: the laws read the links' paths only.
	//
	//stashsim:derived -- wiring, the network's flush
	FlushWire func()

	// Checks counts the audits performed (tests assert the checker ran).
	Checks int64
}

// ParseAuditEvery reads the -invariants[=N] flag of both CLIs (declared
// with flag.BoolFunc, which hands the bare form over as "true") as an
// audit interval in cycles, 0 for no checker. The bare flag means the
// flight recorder's 64 cycles, so auditing a watched run adds no barrier
// rounds; that costs about 1% of a run, every cycle about 44%.
func ParseAuditEvery(s string) (int64, error) {
	switch n, err := strconv.ParseInt(s, 10, 64); {
	case s == "true":
		return metrics.FlightInterval, nil
	case s == "false":
		return 0, nil
	case err != nil || n < 1:
		return 0, fmt.Errorf("want a positive audit interval in cycles, got %q", s)
	default:
		return n, nil
	}
}

// CreditEdge is one credited link: the sender's credit counter, the wire
// (carrying flits forward and credits back), and the receiver's DAMQ the
// counter mirrors.
type CreditEdge struct {
	Name    string
	Credits *buffer.CreditCounter
	Link    *Link
	Buf     *buffer.DAMQ
}

// NextEventAt names the audit cycles: the multiples of Every. With
// AtBarrier it makes the checker a barrier observer (network.Observer).
//
//stashsim:phase serial
func (iv *Invariants) NextEventAt(from int64) int64 {
	return sim.NextMultiple(from, iv.Every)
}

// AtBarrier runs one audit of the state after cycle now.
//
//stashsim:phase serial -- walks every switch, link and buffer
func (iv *Invariants) AtBarrier(now int64) {
	iv.FlushWire()
	iv.Checks++
	iv.checkConservation(now)
	iv.checkCredits(now)
	iv.checkStash(now)
	iv.checkParity(now)
	iv.checkFlitPools(now)
	iv.checkLocks(now)
}

// checkConservation enforces laws 1 and the link half of law 4.
func (iv *Invariants) checkConservation(now sim.Tick) {
	created := iv.ExtCreated()
	destroyed := iv.ExtDestroyed()
	resident := int64(0)
	for _, l := range iv.ExtLinks {
		resident += int64(l.InFlightFlits())
		destroyed += l.Fault.FlitsDropped()
		iv.checkLinkVCs(now, nil, l)
	}
	for _, s := range iv.Switches {
		created += s.created
		destroyed += s.auditFreed()
		resident += int64(s.auditResident())
		for p := 0; p < s.radix; p++ {
			if l := s.out[p].link; l != nil {
				resident += int64(l.InFlightFlits())
				destroyed += l.Fault.FlitsDropped()
				iv.checkLinkVCs(now, s, l)
			}
		}
	}
	if created != destroyed+resident {
		iv.fail(now, nil, fmt.Sprintf(
			"flit conservation: created %d != destroyed %d + resident %d (leak %d)",
			created, destroyed, resident, created-destroyed-resident))
	}
}

// checkLinkVCs enforces S/R confinement on one wire: the storage and
// retrieval VCs never leave a switch.
func (iv *Invariants) checkLinkVCs(now sim.Tick, s *Switch, l *Link) {
	bad := -1
	l.auditFlits(func(f *proto.Flit) {
		if int(f.VC) >= proto.NumNetVCs && bad < 0 {
			bad = int(f.VC)
		}
	})
	if bad >= 0 {
		iv.fail(now, s, fmt.Sprintf("S/R confinement: flit with internal VC %d on a link", bad))
	}
}

// checkCredits enforces law 2 on every credited edge.
func (iv *Invariants) checkCredits(now sim.Tick) {
	for i := range iv.Edges {
		e := &iv.Edges[i]
		var resv [proto.NumNetVCs]int
		shared := 0
		e.Link.auditFlits(func(f *proto.Flit) {
			if f.Flags&proto.FlagShared != 0 {
				shared++
			} else if int(f.VC) < proto.NumNetVCs {
				resv[f.VC]++
			}
		})
		e.Link.auditCredits(func(c proto.Credit) {
			if c.Shared {
				shared++
			} else if int(c.VC) < proto.NumNetVCs {
				resv[c.VC]++
			}
		})
		quota := e.Credits.Reserve()
		for vc := 0; vc < e.Credits.NumVCs(); vc++ {
			got := e.Credits.ResvFree(vc) + resv[vc] + e.Buf.ResvUsed(vc)
			if got != quota {
				iv.fail(now, nil, fmt.Sprintf(
					"credit conservation on %s vc %d: free %d + inflight %d + held %d != reserve %d",
					e.Name, vc, e.Credits.ResvFree(vc), resv[vc], e.Buf.ResvUsed(vc), quota))
			}
		}
		sharedTotal := e.Buf.Capacity() - e.Buf.NumVCs()*e.Buf.Reserve()
		if got := e.Credits.SharedFree() + shared + e.Buf.SharedUsed(); got != sharedTotal {
			iv.fail(now, nil, fmt.Sprintf(
				"credit conservation on %s shared pool: free %d + inflight %d + held %d != %d",
				e.Name, e.Credits.SharedFree(), shared, e.Buf.SharedUsed(), sharedTotal))
		}
	}
}

// checkStash enforces law 3 and the in-switch half of law 4.
func (iv *Invariants) checkStash(now sim.Tick) {
	srMask := uint64(1)<<proto.VCStore | uint64(1)<<proto.VCRetrieve
	for _, s := range iv.Switches {
		stashless := true
		for p, pool := range s.stash {
			if pool.Used() > pool.Capacity() {
				iv.fail(now, s, fmt.Sprintf(
					"stash occupancy: sw%d port %d uses %d of %d flits",
					s.ID, p, pool.Used(), pool.Capacity()))
			}
			if pool.Capacity() > 0 {
				stashless = false
			} else if pool.PresentFlits() > 0 || pool.Reserved() > 0 {
				iv.fail(now, s, fmt.Sprintf(
					"stash occupancy: sw%d port %d holds flits with zero capacity", s.ID, p))
			}
		}
		if !stashless {
			continue
		}
		for t := range s.tiles {
			for _, occ := range s.tiles[t].slotOcc {
				if uint64(occ)&srMask != 0 {
					iv.fail(now, s, fmt.Sprintf(
						"S/R confinement: sw%d tile %d has an occupied S/R stream with no stash", s.ID, t))
				}
			}
		}
		for p := 0; p < s.radix; p++ {
			var mask uint64
			for row := 0; row < s.cfg.Rows; row++ {
				mask |= srMask << uint(row*proto.NumVCs)
			}
			if s.out[p].colMask&mask != 0 {
				iv.fail(now, s, fmt.Sprintf(
					"S/R confinement: sw%d port %d has S/R column flits with no stash", s.ID, p))
			}
		}
	}
}

// checkParity enforces law 5 on switches with parity groups enabled.
func (iv *Invariants) checkParity(now sim.Tick) {
	for _, s := range iv.Switches {
		t := s.parity
		if t == nil {
			continue
		}
		perBank := make([]int, s.radix)
		members := 0
		t.AuditParity(func(parityBank, paritySize int) {
			if parityBank < 0 || parityBank >= s.radix {
				iv.fail(now, s, fmt.Sprintf(
					"parity accounting: sw%d sealed group names bank %d outside the radix", s.ID, parityBank))
			}
			perBank[parityBank] += paritySize
		}, func(pktID uint64, bank int) {
			members++
			if bank < 0 || bank >= s.radix || !s.stash[bank].Live(pktID) {
				iv.fail(now, s, fmt.Sprintf(
					"parity membership: sw%d group member pkt %#x is not a live copy in bank %d",
					s.ID, pktID, bank))
			}
		})
		for p, pool := range s.stash {
			if pool.ParityFlits() != perBank[p] {
				iv.fail(now, s, fmt.Sprintf(
					"parity accounting: sw%d port %d holds %d parity flits, groups account %d",
					s.ID, p, pool.ParityFlits(), perBank[p]))
			}
		}
		if members != t.Members() {
			iv.fail(now, s, fmt.Sprintf(
				"parity membership: sw%d index tracks %d members, groups hold %d",
				s.ID, t.Members(), members))
		}
	}
}

// PoolUser is a component outside the switches whose lists draw from a
// group's pools (an endpoint), as law 6 sees it: the pools, and each of its
// lists handed to the visit of the pool it draws from.
type PoolUser interface {
	Pools() *Pools
	FlitLists(visit func(*buffer.FlitList))
	SendLists(visit func(*buffer.List[proto.PktDesc]))
	ResendLists(visit func(*buffer.List[proto.Resend]))
}

// checkFlitPools enforces law 6 on every group's pools, which the group's
// switches and endpoints share. New numbers switches and endpoints group
// by group, so a group is a run of neighbours on each list.
func (iv *Invariants) checkFlitPools(now sim.Tick) {
	ext := iv.ExtLists
	for lo := 0; lo < len(iv.Switches); {
		s := iv.Switches[lo]
		hi := lo + 1
		for hi < len(iv.Switches) && iv.Switches[hi].pools == s.pools {
			hi++
		}
		n := 0
		for n < len(ext) && ext[n].Pools() == s.pools {
			n++
		}
		g := group{iv.Switches[lo:hi], ext[:n]}
		ext = ext[n:]
		name := fmt.Sprintf("group of sw%d-sw%d", s.ID, g.sw[len(g.sw)-1].ID)
		p := s.pools
		for _, a := range [...]struct {
			pool string
			err  error
		}{
			{"flit pool", p.flits.Audit(g.flitLists)},
			{"credit pool", p.creds.Audit(g.creditLists)},
			{"side-band pool", p.sideband.Audit(g.sidebandLists)},
			{"send-queue pool", p.sends.Audit(g.sendLists)},
			{"resend pool", p.resends.Audit(g.resendLists)},
		} {
			if a.err != nil {
				iv.fail(now, s, fmt.Sprintf("%s: %s: %v", a.pool, name, a.err))
			}
		}
		lo = hi
	}
	if len(ext) > 0 {
		iv.fail(now, nil, fmt.Sprintf("pools: %d endpoints draw from no group's pools in switch order", len(ext)))
	}
}

// group is the switches and endpoints sharing one Pools, seen as the lists
// that draw from its pools.
type group struct {
	sw  []*Switch
	ext []PoolUser
}

func (g group) flitLists(visit func(*buffer.FlitList)) {
	for _, s := range g.sw {
		s.flitLists(visit)
	}
	for _, e := range g.ext {
		e.FlitLists(visit)
	}
}

func (g group) creditLists(visit func(*buffer.List[proto.Credit])) {
	for _, s := range g.sw {
		s.creditLists(visit)
	}
}

func (g group) sidebandLists(visit func(*buffer.List[sbMsg])) {
	for _, s := range g.sw {
		visit(s.sideband.Slots())
	}
}

func (g group) sendLists(visit func(*buffer.List[proto.PktDesc])) {
	for _, e := range g.ext {
		e.SendLists(visit)
	}
}

func (g group) resendLists(visit func(*buffer.List[proto.Resend])) {
	for _, e := range g.ext {
		e.ResendLists(visit)
	}
}

// checkLocks enforces law 7.
func (iv *Invariants) checkLocks(now sim.Tick) {
	for _, s := range iv.Switches {
		if msg := s.auditLocks(); msg != "" {
			iv.fail(now, s, fmt.Sprintf("wormhole locks: sw%d %s", s.ID, msg))
		}
	}
}

// auditLocks checks law 7 on the switch and describes the first breach,
// or returns "".
func (s *Switch) auditLocks() string {
	var taken [64]uint8 // per tile output, the locks a front already holds
	for ti := range s.tiles {
		t := &s.tiles[ti]
		if t.occupied == 0 {
			continue
		}
		clear(taken[:])
		for slot := range t.rowBufs {
			for stream := range t.rowBufs[slot] {
				rb := &t.rowBufs[slot][stream]
				if rb.Empty() {
					continue
				}
				f := rb.Front(&s.pools.flits)
				if f.Head() {
					continue
				}
				port := int(f.Out)
				if stream == proto.VCStore {
					if !t.sLatch[slot].active {
						return fmt.Sprintf("tile(%d,%d) slot %d: storage body flit of pkt %#x without a latched port", t.row, t.col, slot, f.PktID)
					}
					port = int(t.sLatch[slot].port)
				}
				o, bit := s.tileOutOf[port], uint8(1)<<f.VC
				switch {
				case t.outLock[o]&bit == 0:
					return fmt.Sprintf("tile(%d,%d) slot %d stream %d: body flit of pkt %#x at the front, lock (output %d, vc %d) not held",
						t.row, t.col, slot, stream, f.PktID, o, f.VC)
				case taken[o]&bit != 0:
					return fmt.Sprintf("tile(%d,%d) slot %d stream %d: body flit of pkt %#x at the front shares lock (output %d, vc %d) with another front",
						t.row, t.col, slot, stream, f.PktID, o, f.VC)
				}
				taken[o] |= bit
			}
		}
	}
	for p := range s.out {
		op := &s.out[p]
		var taken uint8
		for m := op.colMask; m != 0; m &= m - 1 {
			idx := bits.TrailingZeros64(m)
			row, vc := idx/proto.NumVCs, idx%proto.NumVCs
			f := op.colBufs[row][vc].Front(&s.pools.flits)
			if f.Head() {
				continue
			}
			ev := effVC(f)
			bit := uint8(1) << ev
			switch {
			case op.muxLock&bit == 0:
				return fmt.Sprintf("out%d row %d vc %d: body flit of pkt %#x at the front, multiplexer lock of vc %d not held",
					p, row, vc, f.PktID, ev)
			case taken&bit != 0:
				return fmt.Sprintf("out%d row %d vc %d: body flit of pkt %#x at the front shares the multiplexer lock of vc %d with another front",
					p, row, vc, f.PktID, ev)
			}
			taken |= bit
		}
	}
	return ""
}

// fail reports a violation, dumps the offending switch (when known), and
// panics: a broken conservation law means every later measurement is
// garbage, so the run must not continue.
func (iv *Invariants) fail(now sim.Tick, s *Switch, msg string) {
	out := iv.Out
	if out == nil {
		out = os.Stderr
	}
	fmt.Fprintf(out, "invariant violation at cycle %d: %s\n", now, msg)
	if s != nil {
		io.WriteString(out, s.DumpState())
	}
	panic(fmt.Sprintf("core: invariant violated at cycle %d: %s", now, msg))
}
