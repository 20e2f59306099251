package core

import (
	"fmt"
	"io"
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
//     flits ejected at endpoints plus flits freed by stash deletions
//     plus the population resident in links, buffers, tiles, and pools.
//  2. Credit conservation: on every credited edge, for each VC, the
//     sender's free reserved credits plus in-flight flits and credits
//     plus the receiver's reserved occupancy equal the reserved quota —
//     and likewise for the shared pool.
//  3. Stash occupancy: no pool exceeds its capacity, and a switch with
//     zero stash capacity holds no stashed flits.
//  4. S/R confinement: the storage and retrieval VCs are switch-internal;
//     no flit on any link carries one, and a switch without stash
//     capacity has no occupied S/R column streams.
//  5. Stash liveness: every payload buffer a stash bank references is
//     still alive — a bank holding a buffer that has been returned to
//     the freelist would serve recycled (corrupt) flits on retrieval.
//     With parity groups enabled the law extends to erasure coding:
//     every live parity flit's group is accounted — per-bank parity
//     occupancy equals the sealed groups' parity placed there, every
//     group member is a live completed copy in its recorded bank, the
//     membership index is consistent, and no in-flight reconstruction
//     carries a freed payload buffer. (Parity flits enter conservation
//     through the pools' PresentFlits/FreedFlits and the switches'
//     created counts, so law 1 already balances them.)
//
// The laws are state-based, so sparse audits (Every > 1) still converge
// on any corruption the next time they run. On the first violation the
// checker writes the offending switch's DumpState to Out (os.Stderr by
// default) and panics.
type Invariants struct {
	// Every is the audit interval in cycles; values below one audit every
	// cycle.
	Every int64

	// Out receives the violation report and state dump (default stderr).
	Out io.Writer

	// Switches and ExtLinks (the endpoint→switch injection links) cover
	// every flit-holding structure exactly once: each switch enumerates
	// its own out-links.
	Switches []*Switch
	ExtLinks []*Link

	// Edges lists every credited (sender, link, receiver-buffer) triple.
	Edges []CreditEdge

	// ExtCreated and ExtDestroyed report the cumulative flits injected
	// and ejected by the endpoints.
	ExtCreated   func() int64
	ExtDestroyed func() int64

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
	iv.Checks++
	iv.checkConservation(now)
	iv.checkCredits(now)
	iv.checkStash(now)
	iv.checkStashRefs(now)
	iv.checkParity(now)
}

// checkConservation enforces laws 1 and the link half of law 4.
func (iv *Invariants) checkConservation(now sim.Tick) {
	created := iv.ExtCreated()
	destroyed := iv.ExtDestroyed()
	resident := int64(0)
	for _, l := range iv.ExtLinks {
		resident += int64(l.InFlightFlits())
		destroyed += l.FaultDropped()
		iv.checkLinkVCs(now, nil, l)
	}
	for _, s := range iv.Switches {
		created += s.created
		destroyed += s.auditFreed()
		resident += int64(s.auditResident())
		for p := 0; p < s.radix; p++ {
			if l := s.out[p].link; l != nil {
				resident += int64(l.InFlightFlits())
				destroyed += l.FaultDropped()
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

// checkStashRefs enforces law 5: no stash bank references a freed payload
// buffer. The reference-counted freelists make use-after-free silent — a
// recycled buffer holds a different packet's flits, so a stale bank entry
// would retransmit garbage with a valid-looking checksum. Catch it here,
// while the dangling reference still names the guilty pool.
func (iv *Invariants) checkStashRefs(now sim.Tick) {
	for _, s := range iv.Switches {
		for p, pool := range s.stash {
			bad := uint64(0)
			dead := false
			pool.AuditRetained(func(pktID uint64, b *proto.PktBuf) {
				if b != nil && b.Freed() && (!dead || pktID < bad) {
					bad, dead = pktID, true
				}
			})
			if dead {
				iv.fail(now, s, fmt.Sprintf(
					"stash liveness: sw%d port %d bank references freed buffer for pkt %#x",
					s.ID, p, bad))
			}
		}
	}
}

// checkParity enforces the erasure-coding half of law 5 on switches with
// parity groups enabled.
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
		for i := range s.reconQ {
			if b := s.reconQ[i].buf; b != nil && b.Freed() {
				iv.fail(now, s, fmt.Sprintf(
					"parity reconstruction: sw%d in-flight rebuild of pkt %#x references a freed buffer",
					s.ID, s.reconQ[i].pktID))
			}
		}
	}
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
