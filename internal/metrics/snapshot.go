package metrics

import "stashsim/internal/snapshot"

// State walks for the observability subsystem. A fresh network
// re-registers the identical scope/metric names in the identical order,
// so the walks follow the registration-order slices, verify every name,
// and transfer only values: the snapshot stays self-describing (a wiring
// drift between recorder and restorer fails loudly on the first
// mismatched name) without serializing any wiring.

// name walks one registered name: written on encode, compared on decode.
// It reports whether the walk may go on.
func name(c *snapshot.Codec, kind, want string) bool {
	got := want
	if c.Str(&got); c.Err() == nil && got != want {
		c.Failf("metrics: %s %q in snapshot, this run registered %q", kind, got, want)
	}
	return c.Err() == nil
}

// State walks every scope's counters in registration order: for the
// tallies only the registry reaches this is their one walk; for a name that
// points at a field its component walks too it stores the same value again.
// Gauges are worked out when read and carry no state. Each scope ends in a
// histogram count, always zero: the format once had histograms, and
// checkpoints written then still restore.
//
//stashsim:phase serial -- cross-scope walk; runs only at a cycle barrier or before the restored run starts
func (r *Registry) State(c *snapshot.Codec) {
	if r == nil {
		return
	}
	c.Section("METR")
	if !c.Len("metrics: registry scopes", len(r.scopes), 8) {
		return
	}
	for _, s := range r.scopes {
		if !name(c, "scope", s.name) || !c.Len("metrics: counters of a scope", len(s.counters), 12) {
			return
		}
		for _, ctr := range s.counters {
			if !name(c, "counter", ctr.name) {
				return
			}
			c.I64(ctr.v)
		}
		if !c.Len("metrics: histograms of a scope", 0, 4) {
			return
		}
	}
}

// State walks the sampler's accumulated probe series; decoding expects a
// sampler re-registered with the identical probes and interval.
func (s *Sampler) State(c *snapshot.Codec) {
	if s == nil {
		return
	}
	c.Section("SMPL")
	every := s.every
	if c.I64(&every); c.Err() == nil && every != s.every {
		c.Failf("metrics: sampler interval %d in snapshot, this run samples every %d", every, s.every)
	}
	if !c.Len("metrics: sampler probes", len(s.names), 4) {
		return
	}
	for i, pn := range s.names {
		if !name(c, "sampler probe", pn) {
			return
		}
		s.series[i].State(c)
	}
}

// State walks the watchdog's window bookkeeping, so a restored run
// observes window boundaries on the same absolute cycles.
//
//stashsim:phase serial -- walks the unsynchronized window bookkeeping at a cycle barrier or before the restored run starts
func (w *Watchdog) State(c *snapshot.Codec) {
	if w == nil {
		return
	}
	c.Section("WDOG")
	c.Bool(&w.started)
	c.I64(&w.windowStart)
	c.I64(&w.lastDelivered)
	c.Bool(&w.stalled)
	c.I64(&w.Stalls)
	c.I64(&w.Suppressed)
}
