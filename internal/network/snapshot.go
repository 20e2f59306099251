package network

import (
	"fmt"

	"stashsim/internal/sim"
	"stashsim/internal/snapshot"
)

// Bit-exact checkpoint/restore. A checkpoint captures the complete
// dynamic state of the simulated machine — switches, endpoints, links
// (including traffic still staged in partition-crossing slabs), fault
// injector, collectors, and the stateful observers — at a serial cycle
// barrier, so a run restored from it continues byte-identically to one
// that never stopped, under any partitioning (the link walk is
// form-canonical; see the core package's state walks).
//
// Not captured: the tracer, flight recorder, telemetry publisher, and
// executor profiler. They are debugging sinks whose output streams cannot
// meaningfully resume mid-run; a restored run may re-attach fresh ones,
// but resume-equality of their outputs is out of scope.

// ScheduleCheckpoint arranges for fn to run once, at the serial barrier
// before the first cycle >= at is executed. The epoch before is cut to
// end there (beforeEpoch), so fn always observes a fully quiescent
// network. fn typically calls Checkpoint and writes the bytes out. Call
// before Run.
func (n *Network) ScheduleCheckpoint(at int64, fn func(now sim.Tick)) {
	n.ckptAt = at
	n.ckptFn = fn
}

// state is the network's one state walk, shared by Checkpoint and
// Restore: the configuration fingerprint, the clock, then every component
// in wiring order. The restore walk visits switches and endpoints in the
// order the checkpoint walk did, so the link streams line up by
// construction.
//
//stashsim:phase serial -- walks every component's private state; runs only at a cycle barrier or before any Run
func (n *Network) state(c *snapshot.Codec, now *int64) {
	if n.Cfg.Fingerprint(c); c.Err() != nil {
		return
	}
	c.Section("NETW")
	if c.I64(now); *now < 0 {
		c.Failf("negative checkpoint cycle %d", *now)
	}
	if n.Injector != nil {
		n.Injector.State(c)
	}
	for _, s := range n.Switches {
		if s.State(c); c.Err() != nil {
			return
		}
	}
	for _, ep := range n.Endpoints {
		if ep.State(c, *now); c.Err() != nil {
			return
		}
	}
	n.Collectors.State(c)
	if n.observer(c, "metrics registry", n.Metrics != nil) {
		n.Metrics.State(c)
	}
	if n.observer(c, "occupancy sampler", n.Sampler != nil) {
		n.Sampler.State(c)
	}
	if n.observer(c, "stall watchdog", n.Watchdog != nil) {
		n.Watchdog.State(c)
	}
	if n.observer(c, "invariant checker", n.Invariants != nil) {
		c.I64(&n.Invariants.Checks)
	}
	c.Section("ENDS")
}

// observer walks one stateful observer's presence bit: a restore with
// mismatched observability flags fails loudly instead of desynchronizing.
func (n *Network) observer(c *snapshot.Codec, name string, attached bool) bool {
	return c.Present("a "+name+" attached (pass identical observability flags)", attached)
}

// Checkpoint serializes the network's complete dynamic state as of cycle
// now — the next cycle to execute. Call it only from a ScheduleCheckpoint
// hook or between runs (now == n.Now); the walk assumes every component
// is quiescent.
//
//stashsim:phase serial -- walks every component's private state; runs only at a cycle barrier
func (n *Network) Checkpoint(now sim.Tick) []byte {
	c := snapshot.NewEncoder()
	at := int64(now)
	n.state(c, &at)
	return c.Finish()
}

// Restore loads a checkpoint into this network, which must be freshly
// built (never stepped) from the identical configuration and with the
// identical observers attached — the fingerprint and the per-subsystem
// structural checks fail loudly on any mismatch, and every decoded value
// the step path indexes by is range-checked (snapshot.Codec.Bound). On
// success the network's clock stands at the checkpointed cycle and Run
// continues the simulation byte-identically, under any worker count.
//
//stashsim:phase serial -- rewrites every component's private state; runs only before any Run
func (n *Network) Restore(data []byte) error {
	if n.Now != 0 {
		return fmt.Errorf("network: restore requires a freshly built network (clock at 0)")
	}
	c, err := snapshot.NewDecoder(data)
	if err != nil {
		return err
	}
	d := n.Cfg.Topo
	c.Bounds = snapshot.FlitBounds{Ports: d.Radix(), Nodes: d.NumEndpoints(), Groups: d.Groups()}
	var now int64
	n.state(c, &now)
	if err := c.Close(); err != nil {
		return err
	}

	// The walk pushed every queued entry back, rebuilding the counts and
	// masks beside it, and the run that follows starts all awake like any
	// other, so nothing else is re-derived. The serial-singleton schedules
	// need no rescheduling: they fire on absolute-cycle arithmetic
	// (now%every, windowStart), which the restored clock and watchdog state
	// satisfy.
	n.Now = sim.Tick(now)
	n.cycleDone = now
	return nil
}
