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
// singletons keep their cycle-exact semantics because epochs are
// additionally cut on one schedule (beforeEpoch): after a cycle an
// Observer named, before a cycle an action is due.

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

// ExecStats is the -json "exec" block: how many partitions stepped the
// network, how many barrier rounds they met at, and the mean cycles they
// free-ran between rounds. cycles_per_sync near the lookahead means the
// epoch executor ran unhindered; 1 means something named every cycle.
type ExecStats struct {
	Workers       int     `json:"workers"`
	Epochs        int64   `json:"epochs"`
	CyclesPerSync float64 `json:"cycles_per_sync"`
}

// ExecStats reports the epoch accounting since construction, under the
// current worker count. Read it before Close, which drops to one worker.
func (n *Network) ExecStats() ExecStats {
	st := ExecStats{Workers: n.workers, Epochs: n.epochs}
	if n.epochs > 0 {
		st.CyclesPerSync = float64(n.epochCycles) / float64(n.epochs)
	}
	return st
}

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
	n.exec.BeforeEpoch = n.beforeEpoch
	n.exec.AfterEpoch = n.afterEpoch
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

// Observer is a serial singleton that looks at the network between
// cycles: the sampler, the watchdog, the flight recorder, the invariant
// checker, the telemetry publisher — or a test's fake. The network asks
// each one, before every epoch, for the next cycle it wants to see the end
// of, cuts the epoch right after the earliest answer, and calls AtBarrier
// on exactly the observers that named that cycle. An observer is never
// polled on cycles it did not name, so it costs one barrier round per
// firing and nothing in between.
type Observer interface {
	// NextEventAt returns the first cycle >= from after which AtBarrier
	// must run (sim.Never if none). It must not change state: the network
	// may ask any number of times.
	//
	//stashsim:phase serial
	NextEventAt(from int64) int64

	// AtBarrier runs after every component has stepped cycle now and
	// before any steps now+1, on the goroutine calling Run.
	//
	//stashsim:phase serial
	AtBarrier(now int64)
}

// Observe registers an observer for the rest of the network's life.
// Observers that name the same cycle run in registration order. Call
// between runs.
func (n *Network) Observe(o Observer) { n.observers = append(n.observers, o) }

// beforeEpoch is the executor's BeforeEpoch hook: run the actions due
// before cycle now, then cut the epoch. Actions change simulation state
// and so must precede a cycle; there are exactly two, the scheduled
// checkpoint and the fault plan's stash-bank failures. Observers only read
// it and so follow a cycle: the epoch ends right after the first cycle any
// of them names, or right before the next action.
//
//stashsim:phase serial -- fault injection mutates arbitrary switches; only the coordinator may run it
func (n *Network) beforeEpoch(now sim.Tick) (cut sim.Tick) {
	// The checkpoint fires before due stash failures so an event scheduled
	// at this cycle is still unfired in the snapshot and re-fires in the
	// restored run's first beforeEpoch — the restored run replays this cycle.
	if fn := n.ckptFn; fn != nil && int64(now) >= n.ckptAt {
		n.ckptFn = nil
		fn(now)
	}
	for _, sf := range n.Injector.DueStashFails(int64(now)) {
		lost, reconstructed := n.Switches[sf.Switch].FailStashBank(now, sf.Port)
		n.Injector.AddStashCopiesLost(int64(lost))
		n.Injector.AddStashReconstructed(int64(reconstructed))
	}
	last := sim.Never - 1 // the last cycle this epoch may step
	for _, o := range n.observers {
		last = min(last, o.NextEventAt(int64(now)))
	}
	if n.ckptFn != nil {
		last = min(last, n.ckptAt-1)
	}
	if at, ok := n.Injector.NextStashFailAt(int64(now)); ok {
		last = min(last, at-1)
	}
	return last + 1
}

// afterEpoch is the executor's AfterEpoch hook: publish simulated
// progress, credit the epoch's cycles to the switches' "cycles" metric (an
// epoch starts where the last one, or Restore, left cycleDone), and run
// the observers that named the epoch's last cycle. The components are
// quiescent, so observers may walk live state.
//
//stashsim:phase serial -- the observers walk live state; only the coordinator may run it
func (n *Network) afterEpoch(next sim.Tick) {
	ran := int64(next) - n.cycleDone.Swap(int64(next))
	n.epochs++
	n.epochCycles += ran
	if n.Metrics != nil {
		for _, s := range n.Switches {
			s.CreditCycles(ran)
		}
	}
	last := int64(next) - 1
	for _, o := range n.observers {
		if o.NextEventAt(last) == last {
			o.AtBarrier(last)
		}
	}
}
