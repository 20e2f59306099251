package network

import (
	"stashsim/internal/core"
	"stashsim/internal/sim"
	"stashsim/internal/topo"
)

// One execution model: the network is cut into partitions of switches
// (each with its endpoints), every partition free-runs for an epoch, and
// all meet at a barrier. The topology supplies the epoch length: nothing
// sent over a link is due sooner than its latency, so partitions may run
// apart by the smallest latency among the links that cross between them
// without reordering any delivery. Those crossing links stage an epoch's
// flits and credits in per-link parity slabs that the receiving partition
// drains right after the barrier (core.Link.Stage); every other link has
// both ends on one goroutine and pushes directly. A single partition has
// no crossing links and no barrier — that is serial execution. Serial
// per-cycle singletons (fault events, sampler, watchdog, invariants,
// telemetry, flight recorder) keep their cycle-exact semantics because
// epochs are additionally clamped to end on the next such event, which
// then runs as a 1-cycle epoch bracketed by the hooks.

// unboundedLookahead is the executor lookahead when no link crosses a
// partition: epochs then end only on serial events and the Run bound.
const unboundedLookahead = 1 << 62

// epochPortRef names one (switch, port) side of a partition-crossing link.
//
//stashsim:owner partition
type epochPortRef struct {
	sw   *core.Switch
	port int
}

// partitionDrainer delivers one partition's share of the staged traffic:
// the flit side of every crossing link whose consumer the partition owns,
// and the credit side of every one whose producer it owns. Both sides land
// in rings owned by this partition's switches, so the drain is
// single-writer by construction.
//
//stashsim:owner partition
type partitionDrainer struct {
	flits []epochPortRef
	creds []epochPortRef
}

// DrainEpoch implements sim.EpochDrainer: deliver the slab the remote
// sides filled during the previous epoch ((epoch-1)&1 — producers now
// stage into the other slab) and arm the owning switches.
//
//stashsim:phase parallel
//stashsim:noalloc
func (d *partitionDrainer) DrainEpoch(epoch int64) {
	slab := int((epoch - 1) & 1)
	for _, r := range d.flits {
		r.sw.DrainEpochFlits(r.port, slab)
	}
	for _, r := range d.creds {
		r.sw.DrainEpochCredits(r.port, slab)
	}
}

// EpochLookahead reports the epoch-length cap in force, in cycles: the
// smallest latency among the links that cross between partitions. 0 means
// no link crosses (a single partition), so nothing caps an epoch but
// serial events and the Run bound.
func (n *Network) EpochLookahead() int64 { return n.lookahead }

// repartition cuts the network into n.workers partitions and rebuilds the
// executor over them. It is the one routine behind SetWorkers, Close, the
// profiler attach calls, New and Restore, and runs only at a barrier:
// stop the old workers, flush every link's staged traffic into its ring,
// mark each switch-to-switch link as crossing or internal under the new
// cut, and re-arm every switch from ring occupancy — so a run continues
// exactly where the previous partitioning stopped.
//
// Partition w owns a contiguous block of whole groups while there are
// enough groups to go around, so only global links cross; with more
// workers than groups it owns a contiguous block of switches instead and
// local links cross too (a shorter lookahead, the same algorithm).
// Endpoints stay with their switch, so endpoint links never cross.
func (n *Network) repartition() {
	if n.exec != nil {
		n.exec.Close()
	}
	d := n.Cfg.Topo
	W, units, unitOf := n.workers, d.Groups(), d.Group
	if W > units {
		units, unitOf = d.NumSwitches(), func(sw int) int { return sw }
	}
	// Unit u belongs to the w with w*units/W <= u < (w+1)*units/W.
	partOf := func(sw int) int { return ((unitOf(sw)+1)*W - 1) / units }

	// Per-partition component lists, endpoints first (the profiled
	// phase-A/phase-B split), both in ID order.
	parts := make([][]sim.Stepper, W)
	aCounts := make([]int, W)
	stepper := func(c component) sim.Stepper {
		if n.allAwake {
			return awake{c}
		}
		return c
	}
	for i, ep := range n.Endpoints {
		sw, _ := d.EndpointSwitch(i)
		w := partOf(sw)
		parts[w] = append(parts[w], stepper(ep))
		aCounts[w]++
	}
	for sw, s := range n.Switches {
		w := partOf(sw)
		parts[w] = append(parts[w], stepper(s))
	}

	// Classify every switch-to-switch link (producer view, same walk as
	// New). Internal links return to direct pushes at once; crossing ones
	// are staged below, when the new executor's epoch clock exists.
	var crossing []*core.Link
	var drainers []partitionDrainer
	n.lookahead = 0
	for sw, s := range n.Switches {
		for port := 0; port < d.Radix(); port++ {
			if d.PortClass(port) == topo.Endpoint {
				continue
			}
			nsw, nport := d.Neighbor(sw, port)
			l := s.AuditOutLink(port)
			pp, cp := partOf(sw), partOf(nsw)
			if pp == cp {
				l.Stage(nil)
				continue
			}
			if drainers == nil {
				drainers = make([]partitionDrainer, W)
			}
			crossing = append(crossing, l)
			drainers[cp].flits = append(drainers[cp].flits, epochPortRef{n.Switches[nsw], nport})
			drainers[pp].creds = append(drainers[pp].creds, epochPortRef{s, port})
			if n.lookahead == 0 || l.Latency < n.lookahead {
				n.lookahead = l.Latency
			}
		}
	}
	if n.epochCap > 0 && (n.lookahead == 0 || n.epochCap < n.lookahead) {
		n.lookahead = n.epochCap
	}
	lookahead := sim.Tick(unboundedLookahead)
	if n.lookahead > 0 {
		lookahead = sim.Tick(n.lookahead)
	}
	var drains []sim.EpochDrainer
	for w := range drainers {
		drains = append(drains, &drainers[w])
	}

	n.exec = sim.NewPartitionedExecutor(parts, aCounts, lookahead, drains)
	n.exec.NextEvent = n.nextSerialEvent
	n.exec.PreCycle = n.preCycle
	n.exec.PostCycle = n.postCycle
	n.exec.PostEpoch = n.postEpoch
	n.exec.Profiler = n.Profiler
	for _, l := range crossing {
		l.Stage(n.exec.EpochClock())
	}
	for _, s := range n.Switches {
		s.Rearm()
	}
	// The wake table is derived state like the arm masks: a fresh one is all
	// awake, and each component wires its slot into the links that feed it.
	for w, p := range parts {
		for i, c := range p {
			c.(component).SetWakeSlot(n.exec.WakeSlot(w, i))
		}
	}
}

// component is what the network steps: a switch or an endpoint.
type component interface {
	sim.Stepper
	SetWakeSlot(*sim.Tick)
}

// awake wraps a component so that the executor steps it every cycle. Only
// tests ask for it (Network.allAwake): the reference a sleeping run must equal.
type awake struct{ component }

//stashsim:phase parallel
//stashsim:noalloc
func (awake) NextWake(now sim.Tick) sim.Tick { return now + 1 }

// nextSerialEvent returns the next cycle >= from on which a serial
// singleton must run at the barrier: a due (or overdue) stash-bank
// failure, a sampler / invariant-audit / telemetry interval boundary, a
// watchdog window boundary, or — when a flight recorder is attached —
// every cycle (it records per-cycle deltas). The executor clamps epochs to
// end on the returned cycle and runs it as a 1-cycle epoch with the hooks,
// so every observer sees exactly the cycles it would under a per-cycle
// loop.
//
//stashsim:phase serial -- reads observer schedules; runs on the coordinator between epochs
func (n *Network) nextSerialEvent(from sim.Tick) sim.Tick {
	if n.Flight != nil {
		return from
	}
	f := int64(from)
	next := int64(1) << 62
	if n.ckptFn != nil {
		at := n.ckptAt
		if at < f {
			at = f
		}
		if at < next {
			next = at
		}
	}
	if at, ok := n.Injector.NextStashFailAt(f); ok && at < next {
		next = at
	}
	if n.Sampler != nil {
		if at := nextMultiple(f, n.Sampler.Every()); at < next {
			next = at
		}
	}
	if n.Invariants != nil {
		every := n.Invariants.Every
		if every <= 1 {
			return from // audits every cycle
		}
		if at := nextMultiple(f, every); at < next {
			next = at
		}
	}
	if at := n.Watchdog.NextEventAt(f); at < next {
		next = at
	}
	if n.Telemetry != nil {
		if at := nextMultiple(f, n.Telemetry.Every()); at < next {
			next = at
		}
	}
	return sim.Tick(next)
}

// nextMultiple returns the smallest multiple of every that is >= from
// (the next firing cycle of a now%every==0 observer).
func nextMultiple(from, every int64) int64 {
	if every < 1 {
		return from
	}
	if r := from % every; r != 0 {
		return from + every - r
	}
	return from
}
