package network

import (
	"fmt"
	"runtime"
	"strings"

	"stashsim/internal/sim"
	"stashsim/internal/snapshot"
)

// Bit-exact checkpoint/restore. A checkpoint captures the complete
// dynamic state of the simulated machine — switches, endpoints, links,
// fault injector, collectors, and the stateful observers — at a serial
// cycle barrier, so a run restored from it continues byte-identically to
// one that never stopped, under any partitioning: the walk starts by
// flushing the wire (flushWire), so a link is its paths under any cut.
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
// Restore: the model, then the watching. The restore walk visits switches
// and endpoints in the order the checkpoint walk did, so the link streams
// line up by construction.
//
//stashsim:phase serial -- walks every component's private state; runs only at a cycle barrier or before any Run
func (n *Network) state(c *snapshot.Codec, now *int64) {
	if n.model(c, now); c.Err() != nil {
		return
	}
	// The watching: the metrics registry, if attached, then every observer
	// with a state walk, in registration order. Their type names go first,
	// as one list, so a restore with other observability flags — one
	// missing, one extra, two swapped — fails naming both lists instead of
	// reading one observer's state into another.
	var walked []interface{ State(*snapshot.Codec) }
	if n.Metrics != nil {
		walked = append(walked, n.Metrics)
	}
	for _, o := range n.observers {
		if s, ok := o.(interface{ State(*snapshot.Codec) }); ok {
			walked = append(walked, s)
		}
	}
	names := make([]string, len(walked))
	for i, s := range walked {
		names[i] = fmt.Sprintf("%T", s)
	}
	have := strings.Join(names, " ")
	got := have
	if c.Str(&got); c.Err() == nil && got != have {
		c.Failf("observers [%s] in the snapshot, this run has [%s] (pass identical observability flags)", got, have)
	}
	for _, s := range walked {
		if s.State(c); c.Err() != nil {
			return
		}
	}
	c.Section("ENDS")
}

// model walks the simulated machine: the configuration fingerprint, the
// clock, then every component in wiring order — everything a run's
// outcome is a function of, and nothing that only watches it. Each
// dragonfly group goes in one sized section, its switches each followed by
// the endpoints wired to it: a section holds what the group's pools hold
// and nothing else (see the core package's state walks), so restore
// decodes the sections on every CPU.
//
//stashsim:phase serial -- walks every component's private state; runs only at a cycle barrier or before any Run
func (n *Network) model(c *snapshot.Codec, now *int64) {
	if n.fingerprint == nil {
		n.fingerprint = n.Cfg.Fingerprint()
	}
	if n.fingerprint.State(c); c.Err() != nil {
		return
	}
	c.Section("NETW")
	if c.I64(now); *now < 0 {
		c.Failf("negative checkpoint cycle %d", *now)
	}
	if n.Injector != nil {
		n.Injector.State(c)
	}
	n.walkAt = *now
	if c.Sections("group", n.Cfg.Topo.Groups(), everyCPU, (*sectionWalker)(n)); c.Err() != nil {
		return
	}
	n.Collectors.State(c)
}

// sectionWalker is the network as the walker of its group sections: a
// conversion of the network's pointer, which the codec takes without
// allocating.
type sectionWalker Network

// WalkSection walks group g's switches, each followed by the endpoints
// wired to it, as of the cycle of the walk in progress.
func (w *sectionWalker) WalkSection(c *snapshot.Codec, g int) {
	n := (*Network)(w)
	a, p := n.Cfg.Topo.A, n.Cfg.Topo.P
	for sw := g * a; sw < (g+1)*a; sw++ {
		if n.Switches[sw].State(c, n.walkAt); c.Err() != nil {
			return
		}
		for _, ep := range n.Endpoints[sw*p : (sw+1)*p] {
			if ep.State(c, n.walkAt); c.Err() != nil {
				return
			}
		}
	}
}

// everyCPU runs body for every section on GOMAXPROCS workers: how Restore
// decodes the groups.
func everyCPU(sections int, body func(i int)) {
	sim.ParallelFor(runtime.GOMAXPROCS(0), sections, body)
}

// Checkpoint serializes the network's complete dynamic state as of cycle
// now — the next cycle to execute. Call it only from a ScheduleCheckpoint
// hook or between runs (now == n.Now); the walk assumes every component
// is quiescent. The state is walked twice, to measure and then to write,
// so the bytes are allocated once at their length.
//
//stashsim:phase serial -- walks every component's private state; runs only at a cycle barrier
func (n *Network) Checkpoint(now sim.Tick) []byte {
	n.flushWire()
	at := int64(now)
	return snapshot.Encode(func(c *snapshot.Codec) { n.state(c, &at) })
}

// StateDigest returns the crc64-ECMA of the model's checkpoint walk — the
// fingerprint, clock, fault injector, switches, endpoints and collectors,
// not the observers — as of CyclesDone, the next cycle to execute. Two
// networks with equal digests at a cycle hold the same machine state, so
// a test can compare runs state for state without keeping the bytes. Call
// it where Checkpoint may be called.
//
//stashsim:phase serial -- walks every component's private state; runs only at a cycle barrier
func (n *Network) StateDigest() uint64 {
	n.flushWire()
	now := n.cycleDone
	return n.digest.Sum(func(c *snapshot.Codec) { n.model(c, &now) })
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
