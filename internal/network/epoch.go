package network

import (
	"stashsim/internal/core"
	"stashsim/internal/sim"
	"stashsim/internal/topo"
)

// One execution model: the network is cut into blocks — a dragonfly group's
// switches and their endpoints — and time into epochs. The topology
// supplies the epoch length: nothing sent over a link is due sooner than
// its latency, so within a span of cycles no longer than the smallest
// latency among the links that cross between blocks, no block needs
// anything another sends, and the blocks may be stepped one after another,
// each through the whole epoch, or on several workers at once (see
// sim.Executor). The W workers each own a contiguous run of blocks. Links
// that cross between workers stage an epoch's flits and credits on lists in
// the sending group's pools, one per epoch parity, which the receiving
// worker copies onto its paths right after the barrier and the sending
// worker frees after the next (core.Link.Stage); every other link —
// inside a block or between two blocks of one worker — has both ends on
// one goroutine and pushes directly. One worker has no staged links and no barrier: that is serial
// execution, and it steps block by block like any other. Serial singletons
// keep their cycle-exact semantics because epochs are additionally cut on
// one schedule (beforeEpoch): after a cycle an Observer named, before a
// cycle an action is due.

// partitionDrainer is one worker's share of the staged traffic: flits
// holds every worker-crossing link whose consumer the worker owns (it
// lands their flits and frees the credits it staged), creds every one
// whose producer it owns (it lands their credits and frees the flits it
// staged). So it frees only lists in its own groups' pools and lands only
// on its own groups' paths and wake slots; the lists it copies from, in
// another worker's pools, that worker leaves alone until the next
// barrier.
//
//stashsim:owner partition
type partitionDrainer struct {
	flits []*core.Link
	creds []*core.Link
}

// DrainEpoch implements sim.EpochDrainer at the start of epoch epoch: free
// the lists this worker staged two epochs ago (epoch&1), which the other
// side landed at the last epoch's start, before anything is staged on
// them again, then land the lists the other side staged during the last
// epoch ((epoch-1)&1), waking the owning switches. Freeing first lets the
// landing reuse the slots.
//
//stashsim:phase parallel
//stashsim:noalloc
func (d *partitionDrainer) DrainEpoch(epoch int64) {
	mine, theirs := int(epoch&1), int((epoch-1)&1)
	for _, l := range d.flits {
		l.FreeCredits(mine)
	}
	for _, l := range d.creds {
		l.FreeFlits(mine)
	}
	for _, l := range d.flits {
		l.LandFlits(theirs)
	}
	for _, l := range d.creds {
		l.LandCredits(theirs)
	}
}

// flushWire lands every staged flit and credit of every worker-crossing
// link on its path and frees every stage list, as the next two epochs'
// drains would: the first frees the parity landed at this epoch's start
// and lands the one staged during it, the second frees that one. Each
// runs over every worker's share before the next begins, since one
// worker's drain frees what another's lands. Each landing lowers the
// consumer's slots, and the pools are published first, for the copies.
// Serial code reads only the paths, so it runs first wherever serial code
// reads the wire at a barrier: a checkpoint or digest walk, the invariant
// audit and repartition. Nothing else calls it — a barrier that reads
// nothing leaves the staged entries to the next epoch's parallel drain.
//
//stashsim:phase serial -- writes the pools of every worker's groups; runs only at a barrier
func (n *Network) flushWire() {
	n.publishPools()
	e := n.exec.EpochClock().Load()
	for _, epoch := range [...]int64{e + 1, e + 2} {
		for i := range n.drainers {
			n.drainers[i].DrainEpoch(epoch)
		}
	}
}

// publishPools publishes every group's pools (core.Pools.Publish) when some
// link is staged, so that the next drains reach every slot staged so far.
//
//stashsim:phase serial
func (n *Network) publishPools() {
	if n.drainers == nil {
		return
	}
	for i := range n.pools {
		n.pools[i].Publish()
	}
}

// EpochLookahead reports the epoch-length cap in force, in cycles: the
// smallest latency among the links that cross between blocks. It applies
// at every worker count, one included — a single worker also runs each
// block through the epoch before the next, and that is only exact while
// nothing sent during the epoch is due inside it.
func (n *Network) EpochLookahead() int64 { return n.lookahead }

// ExecStats is the executor's accounting: how many blocks the network was
// cut into, how many workers stepped them, how many epochs they ran (one
// barrier round each when there are several workers), and the mean cycles a
// block ran before the next was touched. cycles_per_sync near the lookahead
// means the epochs ran unhindered; 1 means something named every cycle, and
// the blocks took turns cycle by cycle. It is the -json "exec" block when
// workers > 1.
type ExecStats struct {
	Blocks        int     `json:"blocks"`
	Workers       int     `json:"workers"`
	Epochs        int64   `json:"epochs"`
	CyclesPerSync float64 `json:"cycles_per_sync"`
}

// ExecStats reports the epoch accounting since construction, under the
// current blocking and worker count. Read it before Close, which drops to
// one worker.
func (n *Network) ExecStats() ExecStats {
	st := ExecStats{Blocks: n.blocks, Workers: n.workers, Epochs: n.epochs}
	if n.epochs > 0 {
		st.CyclesPerSync = float64(n.epochCycles) / float64(n.epochs)
	}
	return st
}

// repartition cuts the network into blocks, deals them to n.workers
// workers and rebuilds the executor over them. It is the one routine behind
// SetWorkers, Close, the profiler attach calls and New, and runs only at a
// barrier: flush the wire, stop the old workers, give each switch-to-switch
// link a stage or none under the new cut, and hand every component a slot
// of the new executor's wake table — so a run continues exactly where the
// previous cut stopped.
//
// A block is one dragonfly group, whatever the worker count (SetWorkers
// allows no more workers than groups), and worker w steps a contiguous run
// of them (sim.WorkerOf), so only global links cross blocks and only some
// of those cross workers. Endpoints stay with their switch, so endpoint
// links never cross, and a group's pools (core.Pools) are touched by its
// worker alone.
func (n *Network) repartition() {
	if n.exec != nil {
		n.flushWire()
		n.exec.Close()
	}
	d := n.Cfg.Topo
	W, B, blockOf := n.workers, d.Groups(), d.Group
	workerOf := func(sw int) int { return sim.WorkerOf(blockOf(sw), B, W) }

	// Classify every switch-to-switch link of the table. A link between
	// blocks caps the epoch; only one between workers is staged (below, when
	// the new executor's epoch clock exists), the rest return to direct
	// pushes at once.
	n.drainers = nil
	n.lookahead = 0
	var crossing []*edge
	for i := range n.edges {
		e := &n.edges[i]
		if e.class == topo.Endpoint {
			continue
		}
		sw, nsw, l := int(e.from.sw), int(e.to.sw), e.link
		if blockOf(sw) != blockOf(nsw) && (n.lookahead == 0 || l.Latency < n.lookahead) {
			n.lookahead = l.Latency
		}
		pw, cw := workerOf(sw), workerOf(nsw)
		if pw == cw {
			l.Stage(nil, nil, nil)
			continue
		}
		if n.drainers == nil {
			n.drainers = make([]partitionDrainer, W)
		}
		n.drainers[cw].flits = append(n.drainers[cw].flits, l)
		n.drainers[pw].creds = append(n.drainers[pw].creds, l)
		crossing = append(crossing, e)
	}
	var drains []sim.EpochDrainer
	for w := range n.drainers {
		drains = append(drains, &n.drainers[w])
	}

	// Per-block component lists, endpoints first (the profiled
	// phase-A/phase-B split), both in ID order.
	n.blocks = B
	blocks := make([][]sim.Stepper, B)
	aCounts := make([]int, B)
	for i, ep := range n.Endpoints {
		sw, _ := d.EndpointSwitch(i)
		b := blockOf(sw)
		blocks[b] = append(blocks[b], ep)
		aCounts[b]++
	}
	for sw, s := range n.Switches {
		b := blockOf(sw)
		blocks[b] = append(blocks[b], s)
	}

	n.exec = sim.NewPartitionedExecutor(blocks, aCounts, W, sim.Tick(n.lookahead), drains)
	n.exec.BeforeEpoch = n.beforeEpoch
	n.exec.AfterEpoch = n.afterEpoch
	n.exec.Profiler = n.Profiler
	for _, e := range crossing {
		e.link.Stage(n.exec.EpochClock(), &n.pools[blockOf(int(e.from.sw))], &n.pools[blockOf(int(e.to.sw))])
	}
	// The wake table is derived state: a fresh one is all awake, and each
	// component wires its slot into the links that feed it.
	for b, cs := range blocks {
		for i, c := range cs {
			c.(component).SetWakeSlot(n.exec.WakeSlot(b, i))
		}
	}
}

// component is what the network steps: a switch or an endpoint.
type component interface {
	sim.Stepper
	SetWakeSlot(*sim.Tick)
}

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

// Observe registers an observer for the rest of the network's life: the
// one way onto the barrier schedule, for the network's own observers
// (NewSampler, NewFlightRecorder, NewWatchdog, NewInvariants), a telemetry
// publisher or a test's fake alike. Observers that name the same cycle run
// in registration order, and the checkpoint walks the stateful ones in it.
// Call between runs.
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

// afterEpoch is the executor's AfterEpoch hook: publish the pools the next
// epoch's drains copy the staged entries out of (only Step stages, so the
// directories reach every slot staged), advance the barrier clock, credit
// the epoch's cycles to the switches' "cycles" tally (an epoch starts
// where the last one, or Restore, left cycleDone), and run the observers
// that named the epoch's last cycle. The components are quiescent, so
// observers may walk live state.
//
//stashsim:phase serial -- the observers walk live state; only the coordinator may run it
func (n *Network) afterEpoch(next sim.Tick) {
	n.publishPools()
	ran := int64(next) - n.cycleDone
	n.cycleDone = int64(next)
	n.epochs++
	n.epochCycles += ran
	for _, s := range n.Switches {
		s.CreditCycles(ran)
	}
	last := int64(next) - 1
	for _, o := range n.observers {
		if o.NextEventAt(last) == last {
			o.AtBarrier(last)
		}
	}
}
