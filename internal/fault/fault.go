// Package fault implements deterministic fault injection for the
// simulated network: per-link Bernoulli packet drops, per-flit payload
// corruption (caught by the packet checksum in internal/proto), transient
// link-outage windows on named dragonfly links, and stash-bank failures
// that invalidate live end-to-end copies.
//
// A fault Plan is a pure value: the same plan and seed produce the same
// fault schedule on every run, so the simulator's bit-identical
// reproducibility contract (TestRunIsDeterministic, the stashlint
// determinism analyzer) holds under fault injection. Each link owns its
// own RNG stream derived from the plan seed and the link's name, so fault
// decisions are independent of link wiring or iteration order.
//
// Links are named exactly as the invariant checker names its credited
// edges: "ep5->sw1.0" for an injection link, "sw1.0->ep5" for an ejection
// link, and "sw0.3->sw4.2" for a switch-to-switch channel.
package fault

import (
	"fmt"

	"stashsim/internal/proto"
	"stashsim/internal/sim"
)

// Outage is a transient full-loss window [Start, End) on one named link:
// every packet whose head flit is transmitted inside the window is dropped
// whole. A packet whose head was already committed to the wire before
// Start finishes delivery (the wormhole tail straggles out), keeping
// downstream wormhole state consistent.
type Outage struct {
	Link  string `json:"link"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// StashFail is one stash-bank failure: at cycle At, the stash pool of the
// given (switch, port) loses every live end-to-end copy it holds. Copies
// stored after At land in the replacement bank and are unaffected.
type StashFail struct {
	Switch int   `json:"switch"`
	Port   int   `json:"port"`
	At     int64 `json:"at"`
}

// Plan is a complete, deterministic fault schedule. The zero value injects
// nothing.
type Plan struct {
	// Seed seeds the per-link fault RNG streams. Independent of the
	// simulation master seed so fault schedules can be varied in isolation.
	Seed uint64 `json:"seed"`
	// LinkDropRate is the per-packet Bernoulli drop probability applied on
	// every link traversal (the decision is made at the head flit and
	// applies to the whole packet, preserving wormhole integrity).
	LinkDropRate float64 `json:"link_drop_rate"`
	// CorruptRate is the per-flit Bernoulli payload-corruption probability:
	// a corrupted flit's checksum no longer matches its payload, which the
	// destination detects and NACKs.
	CorruptRate float64 `json:"corrupt_rate"`
	// Outages lists transient link-outage windows.
	Outages []Outage `json:"outages,omitempty"`
	// StashFailures lists stash-bank failure events.
	StashFailures []StashFail `json:"stash_failures,omitempty"`
}

// Active reports whether the plan injects any fault at all.
//
//stashsim:noalloc
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.LinkDropRate > 0 || p.CorruptRate > 0 ||
		len(p.Outages) > 0 || len(p.StashFailures) > 0
}

// Validate checks the plan's parameters.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if !(p.LinkDropRate >= 0 && p.LinkDropRate <= 1) {
		return fmt.Errorf("fault: link drop rate %v outside [0,1]", p.LinkDropRate)
	}
	if !(p.CorruptRate >= 0 && p.CorruptRate <= 1) {
		return fmt.Errorf("fault: corrupt rate %v outside [0,1]", p.CorruptRate)
	}
	for _, o := range p.Outages {
		if o.Link == "" {
			return fmt.Errorf("fault: outage with empty link name")
		}
		if o.Start < 0 || o.End <= o.Start {
			return fmt.Errorf("fault: outage window [%d,%d) on %s is empty or negative", o.Start, o.End, o.Link)
		}
	}
	for i, sf := range p.StashFailures {
		if sf.Switch < 0 || sf.Port < 0 || sf.At < 0 {
			return fmt.Errorf("fault: negative stash-failure coordinates %+v", sf)
		}
		// Duplicate coordinates would double-fire the bank-failure event:
		// the second firing finds an empty bank, but double-counts the
		// event and, with parity enabled, would double-process groups.
		for _, prev := range p.StashFailures[:i] {
			if prev == sf {
				return fmt.Errorf("fault: duplicate stash-failure %d.%d@%d", sf.Switch, sf.Port, sf.At)
			}
		}
	}
	return nil
}

// Stats aggregates injected-fault counts across all links of one injector.
type Stats struct {
	// PktsDropped counts whole packets dropped (Bernoulli and outage).
	PktsDropped int64
	// FlitsDropped counts individual flits destroyed by drops; this is the
	// fault term of the invariant checker's flit-conservation law.
	FlitsDropped int64
	// OutagePkts counts the subset of PktsDropped caused by outage windows.
	OutagePkts int64
	// FlitsCorrupted counts flits whose checksum was invalidated.
	FlitsCorrupted int64
	// StashCopiesLost counts live end-to-end copies invalidated by
	// stash-bank failures.
	StashCopiesLost int64
	// StashCopiesReconstructed counts the subset of StashCopiesLost
	// rebuilt from parity-group survivors instead of degrading to
	// endpoint retransmission (StashParity configurations only).
	StashCopiesReconstructed int64
}

// merge folds another stats value into s.
func (s *Stats) merge(o Stats) {
	s.PktsDropped += o.PktsDropped
	s.FlitsDropped += o.FlitsDropped
	s.OutagePkts += o.OutagePkts
	s.FlitsCorrupted += o.FlitsCorrupted
	s.StashCopiesLost += o.StashCopiesLost
	s.StashCopiesReconstructed += o.StashCopiesReconstructed
}

// Injector materializes a plan: it hands out per-link fault state at
// wiring time and schedules the stash-bank failure events. A nil
// *Injector is inactive.
//
// Fault counts are sharded for the parallel executor: every LinkFault owns
// its own Stats (incremented only by the goroutine stepping the link's
// producer), plus one coordinator-owned shard for stash-bank failures
// applied at the cycle barrier. Snapshot merges the shards in wiring order.
type Injector struct {
	plan Plan //stashsim:derived -- configuration; the fingerprint covers it
	// local is the coordinator-owned stats shard (stash-bank failures are
	// applied serially between cycles).
	local Stats
	// links holds every handed-out per-link fault state in wiring order,
	// the order Snapshot merges them in.
	links []*LinkFault

	matched  map[string]bool //stashsim:transient -- wiring-time bookkeeping: outage link names seen
	fails    []StashFail     // sorted by At
	failNext int
}

// NewInjector builds an injector for the plan.
func NewInjector(plan Plan) *Injector {
	in := &Injector{plan: plan, matched: make(map[string]bool)}
	in.fails = append(in.fails, plan.StashFailures...)
	// Stable sort by (At, Switch, Port) so same-cycle failures apply in a
	// deterministic order.
	for i := 1; i < len(in.fails); i++ {
		for j := i; j > 0 && failLess(in.fails[j], in.fails[j-1]); j-- {
			in.fails[j], in.fails[j-1] = in.fails[j-1], in.fails[j]
		}
	}
	return in
}

func failLess(a, b StashFail) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Switch != b.Switch {
		return a.Switch < b.Switch
	}
	return a.Port < b.Port
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// Link builds the fault state for the named link, or nil when the plan
// injects nothing on it (the zero-cost path for outage-only plans).
func (in *Injector) Link(name string) *LinkFault {
	if in == nil {
		return nil
	}
	var outages []Outage
	for _, o := range in.plan.Outages {
		if o.Link == name {
			outages = append(outages, o)
			in.matched[o.Link] = true
		}
	}
	if in.plan.LinkDropRate == 0 && in.plan.CorruptRate == 0 && len(outages) == 0 {
		return nil
	}
	lf := &LinkFault{
		rng:     sim.NewRNG(in.plan.Seed ^ hashName(name)),
		drop:    in.plan.LinkDropRate,
		corrupt: in.plan.CorruptRate,
		outages: outages,
	}
	in.links = append(in.links, lf)
	return lf
}

// Snapshot merges the coordinator shard and every per-link shard, in
// wiring order, into one aggregate Stats. Call it between runs or at a
// cycle barrier; it must not race with in-flight link traffic.
func (in *Injector) Snapshot() Stats {
	if in == nil {
		return Stats{}
	}
	s := in.local
	for _, lf := range in.links {
		s.merge(lf.stats)
	}
	return s
}

// AddStashCopiesLost records copies invalidated by a stash-bank failure on
// the coordinator shard (failures apply serially between cycles).
func (in *Injector) AddStashCopiesLost(n int64) {
	in.local.StashCopiesLost += n
}

// AddStashReconstructed records copies scheduled for parity
// reconstruction after a stash-bank failure, on the coordinator shard.
func (in *Injector) AddStashReconstructed(n int64) {
	in.local.StashCopiesReconstructed += n
}

// UnmatchedOutages returns the outage link names that no wired link
// claimed — almost certainly a typo in the plan. Call after wiring.
func (in *Injector) UnmatchedOutages() []string {
	if in == nil {
		return nil
	}
	var missing []string
	seen := make(map[string]bool)
	for _, o := range in.plan.Outages {
		if !in.matched[o.Link] && !seen[o.Link] {
			seen[o.Link] = true
			missing = append(missing, o.Link)
		}
	}
	return missing
}

// DueStashFails returns the stash-bank failures scheduled at or before
// now that have not been handed out yet, in deterministic order.
func (in *Injector) DueStashFails(now int64) []StashFail {
	if in == nil || in.failNext >= len(in.fails) || in.fails[in.failNext].At > now {
		return nil
	}
	start := in.failNext
	for in.failNext < len(in.fails) && in.fails[in.failNext].At <= now {
		in.failNext++
	}
	return in.fails[start:in.failNext]
}

// HasStashFails reports whether the plan schedules any stash-bank failure.
func (in *Injector) HasStashFails() bool { return in != nil && len(in.fails) > 0 }

// NextStashFailAt returns the cycle of the next undelivered stash-bank
// failure, clamped to at least `from` (an overdue event must fire on the
// next cycle that runs). ok is false when the schedule is exhausted or nil.
// Epoch-synchronized executors use it to end epochs exactly on failure
// cycles so DueStashFails keeps its per-cycle semantics.
func (in *Injector) NextStashFailAt(from int64) (at int64, ok bool) {
	if in == nil || in.failNext >= len(in.fails) {
		return 0, false
	}
	at = in.fails[in.failNext].At
	if at < from {
		at = from
	}
	return at, true
}

// OutageNote returns a human-readable description of any outage window
// overlapping [from, to], or "" when none does. The stall watchdog uses it
// to report "outage active" instead of dumping switch state during a
// configured zero-delivery window.
func (in *Injector) OutageNote(from, to int64) string {
	if in == nil {
		return ""
	}
	for _, o := range in.plan.Outages {
		if o.Start <= to && o.End > from {
			return fmt.Sprintf("outage active on link %s [%d,%d)", o.Link, o.Start, o.End)
		}
	}
	return ""
}

// StashFailNote returns a human-readable description of a recent
// stash-bank failure whose drain could plausibly still be in progress —
// one scheduled inside [from, to] or in the window of equal length just
// before it — or "" when none is. Like OutageNote, the stall watchdog
// uses it so bank-failure recovery does not masquerade as a stall.
func (in *Injector) StashFailNote(from, to int64) string {
	if in == nil {
		return ""
	}
	lo := from - (to - from)
	for _, sf := range in.fails {
		if sf.At >= lo && sf.At <= to {
			return fmt.Sprintf("stash-bank failure at sw%d.%d@%d still draining", sf.Switch, sf.Port, sf.At)
		}
	}
	return ""
}

// LinkFault is the per-link fault state consulted on every transmitted
// flit. A nil *LinkFault delivers everything untouched. Each LinkFault is
// touched only by the goroutine stepping the link's producer, so its stats
// shard needs no synchronization.
type LinkFault struct {
	stats   Stats
	rng     *sim.RNG
	drop    float64
	corrupt float64
	outages []Outage

	// Per-VC whole-packet drop latch: once a head flit is dropped, the
	// packet's remaining flits on that VC are dropped too, so downstream
	// wormhole state never sees a headless or truncated packet. Packets on
	// one link VC cannot interleave (per-VC wormhole), so one latch per VC
	// suffices; the +1 slot covers out-of-range VCs defensively.
	dropPkt    [proto.NumVCs + 1]uint64
	dropActive [proto.NumVCs + 1]bool
}

// inOutage reports whether now falls inside one of the link's windows.
//
//stashsim:noalloc
func (lf *LinkFault) inOutage(now int64) bool {
	for _, o := range lf.outages {
		if now >= o.Start && now < o.End {
			return true
		}
	}
	return false
}

// OnFlit screens one flit about to be transmitted at cycle now. It
// returns true when the flit must be dropped; corruption is applied to
// the flit in place. A nil receiver delivers everything.
//
//stashsim:noalloc
func (lf *LinkFault) OnFlit(now int64, f *proto.Flit) (drop bool) {
	if lf == nil {
		return false
	}
	vc := int(f.VC)
	if vc > proto.NumVCs {
		vc = proto.NumVCs
	}
	if f.Head() {
		lf.dropActive[vc] = false
		switch {
		case lf.inOutage(now):
			lf.stats.OutagePkts++
			drop = true
		case lf.drop > 0 && lf.rng.Bernoulli(lf.drop):
			drop = true
		}
		if drop {
			lf.stats.PktsDropped++
			if !f.Tail() {
				lf.dropActive[vc] = true
				lf.dropPkt[vc] = f.PktID
			}
		}
	} else if lf.dropActive[vc] && lf.dropPkt[vc] == f.PktID {
		drop = true
		if f.Tail() {
			lf.dropActive[vc] = false
		}
	}
	if drop {
		lf.stats.FlitsDropped++
		return true
	}
	if lf.corrupt > 0 && lf.rng.Bernoulli(lf.corrupt) {
		// Model a payload bit error: the checksum no longer matches the
		// (conceptual) payload, which the destination's verification
		// catches.
		f.Csum ^= 0x5555
		lf.stats.FlitsCorrupted++
	}
	return false
}

// FlitsDropped returns the flits the link's drops destroyed, the link's
// term of the invariant checker's flit-conservation law; a nil receiver
// destroyed none.
func (lf *LinkFault) FlitsDropped() int64 {
	if lf == nil {
		return 0
	}
	return lf.stats.FlitsDropped
}

// hashName is FNV-1a over the link name, used to derive per-link RNG
// streams from the plan seed.
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Backoff returns the exponential-backoff timeout for the given retry
// attempt: base << retry, saturating at 1<<20 times the base so repeated
// exhaustion cannot overflow.
//
//stashsim:noalloc
func Backoff(base int64, retry int) int64 {
	if retry < 0 {
		retry = 0
	}
	if retry > 20 {
		retry = 20
	}
	return base << uint(retry)
}
