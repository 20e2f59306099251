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
// that never stopped, under any partitioning (the link codec is
// form-canonical; see the core package's snapshot hooks).
//
// Not captured: the tracer, flight recorder, telemetry publisher, and
// executor profiler. They are debugging sinks whose output streams cannot
// meaningfully resume mid-run; a restored run may re-attach fresh ones,
// but resume-equality of their outputs is out of scope.

// ScheduleCheckpoint arranges for fn to run once, at the serial barrier
// before the first cycle >= at is executed. The executor clamps an epoch
// to end there (nextSerialEvent), so fn always observes a fully quiescent
// network. fn typically calls Checkpoint and writes the bytes out. Call
// before Run.
func (n *Network) ScheduleCheckpoint(at int64, fn func(now sim.Tick)) {
	n.ckptAt = at
	n.ckptFn = fn
}

// Checkpoint serializes the network's complete dynamic state as of cycle
// now — the next cycle to execute. Call it only from a ScheduleCheckpoint
// hook or between runs (now == n.Now); the walk assumes every component
// is quiescent.
//
//stashsim:phase serial -- walks every component's private state; runs only at a cycle barrier
func (n *Network) Checkpoint(now sim.Tick) []byte {
	w := snapshot.NewWriter()
	n.Cfg.EncodeFingerprint(w)
	w.Section("NETW")
	w.I64(int64(now))
	if n.Injector != nil {
		n.Injector.EncodeState(w)
	}
	for _, s := range n.Switches {
		s.EncodeState(w)
	}
	for _, ep := range n.Endpoints {
		ep.EncodeState(w)
	}
	n.Collectors.EncodeState(w)
	w.Bool(n.Metrics != nil)
	if n.Metrics != nil {
		n.Metrics.EncodeState(w)
	}
	w.Bool(n.Sampler != nil)
	if n.Sampler != nil {
		n.Sampler.EncodeState(w)
	}
	w.Bool(n.Watchdog != nil)
	if n.Watchdog != nil {
		n.Watchdog.EncodeState(w)
	}
	w.Bool(n.Invariants != nil)
	if n.Invariants != nil {
		w.I64(n.Invariants.Checks)
	}
	w.Section("ENDS")
	return w.Finish()
}

// Restore loads a checkpoint into this network, which must be freshly
// built (never stepped) from the identical configuration and with the
// identical observers attached — the fingerprint and the per-subsystem
// structural checks fail loudly on any mismatch. On success the network's
// clock stands at the checkpointed cycle and Run continues the simulation
// byte-identically, under any worker count.
//
//stashsim:phase serial -- rewrites every component's private state; runs only before any Run
func (n *Network) Restore(data []byte) error {
	if n.Now != 0 {
		return fmt.Errorf("network: restore requires a freshly built network (clock at 0)")
	}
	rd, err := snapshot.NewReader(data)
	if err != nil {
		return err
	}
	n.Cfg.CheckFingerprint(rd)
	if err := rd.Err(); err != nil {
		return err
	}
	rd.Section("NETW")
	now := rd.I64()
	if err := rd.Err(); err != nil {
		return err
	}
	if now < 0 {
		return fmt.Errorf("snapshot: negative checkpoint cycle %d", now)
	}
	if n.Injector != nil {
		n.Injector.DecodeState(rd)
	}
	for _, s := range n.Switches {
		s.DecodeState(rd)
		if err := rd.Err(); err != nil {
			return err
		}
	}
	for _, ep := range n.Endpoints {
		ep.DecodeState(rd)
		if err := rd.Err(); err != nil {
			return err
		}
	}
	n.Collectors.DecodeState(rd)
	if err := n.decodeObserver(rd, "metrics registry", n.Metrics != nil, func() {
		n.Metrics.DecodeState(rd)
	}); err != nil {
		return err
	}
	if err := n.decodeObserver(rd, "occupancy sampler", n.Sampler != nil, func() {
		n.Sampler.DecodeState(rd)
	}); err != nil {
		return err
	}
	if err := n.decodeObserver(rd, "stall watchdog", n.Watchdog != nil, func() {
		n.Watchdog.DecodeState(rd)
	}); err != nil {
		return err
	}
	if err := n.decodeObserver(rd, "invariant checker", n.Invariants != nil, func() {
		n.Invariants.Checks = rd.I64()
	}); err != nil {
		return err
	}
	rd.Section("ENDS")
	if err := rd.Close(); err != nil {
		return err
	}

	n.Now = sim.Tick(now)
	n.cycleDone.Store(now)
	// The codec put every in-flight entry into the rings; repartition
	// re-arms the switches from ring occupancy. The serial-singleton
	// schedules need no rescheduling: they fire on absolute-cycle
	// arithmetic (now%every, windowStart), which the restored clock and
	// watchdog state satisfy.
	n.repartition()
	return nil
}

// decodeObserver checks an observer's presence flag against this
// network's wiring and runs its decoder when present on both sides.
func (n *Network) decodeObserver(rd *snapshot.Reader, name string, attached bool, decode func()) error {
	has := rd.Bool()
	if err := rd.Err(); err != nil {
		return err
	}
	if has != attached {
		if has {
			return fmt.Errorf("snapshot: checkpointed run had a %s attached, this run does not — pass identical observability flags", name)
		}
		return fmt.Errorf("snapshot: this run has a %s attached, the checkpointed run did not — pass identical observability flags", name)
	}
	if has {
		decode()
	}
	return rd.Err()
}
