// Package route implements progressive adaptive routing (PAR-style) for
// canonical dragonfly networks, using six virtual channels for deadlock
// freedom as in the paper's "PAR6/2" configuration.
//
// Deadlock avoidance: a packet's VC on each switch-to-switch channel equals
// the number of such channels it has already traversed. The longest legal
// path (local divert at the source-group gateway) uses six channels
// (l-l-g-l-g-l), so VCs increase monotonically 0..5 along every path and the
// channel-dependency graph is acyclic.
//
// Progressiveness: the minimal-vs-Valiant decision is made at injection and
// may be re-made at the source-group switch holding the minimal global link
// ("2" decision points); once a packet commits to a Valiant path or crosses
// a global link the decision is final.
package route

import (
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/topo"
)

// Params tunes the adaptive decision.
type Params struct {
	// Bias multiplies the non-minimal queue estimate (UGAL's factor 2:
	// a Valiant path is roughly twice as long as a minimal one).
	Bias int
	// Threshold is added to the biased non-minimal estimate; it damps
	// spurious diverts at low load. In flits.
	Threshold int
	// Adaptive disables Valiant diverts entirely when false (minimal
	// routing), used by unit tests and ablations.
	Adaptive bool
}

// DefaultParams returns the configuration used by the experiments. The
// threshold is calibrated against the output-queue signal (which includes
// the column-buffer backlog): low enough that hotspot victims divert, high
// enough that uniform traffic near saturation stays minimal — with the
// paper's sizes, spurious diverts below this cost ~6% saturation
// throughput.
func DefaultParams() Params {
	return Params{Bias: 2, Threshold: 12 * proto.MaxPacketFlits, Adaptive: true}
}

// Oracle exposes the switch state the adaptive decision inspects: the
// queued occupancy (flits awaiting transmission) of each output port.
type Oracle interface {
	OutputQueue(port int) int
}

// Decision is the outcome of routing a head flit at one switch.
type Decision struct {
	Out        int   // output port at this switch
	NextVC     uint8 // VC on the outgoing channel (unused for ejection)
	Eject      bool  // Out is an endpoint port
	Phase      proto.RoutePhase
	MidGroup   int16
	NonMinimal bool
}

// Router routes packets over one dragonfly.
type Router struct {
	D      topo.Dragonfly //stashsim:derived -- structural; rebuilt from the configuration
	Params Params         //stashsim:derived -- structural; rebuilt from the configuration
	rng    *sim.RNG
}

// New builds a Router. The RNG drives Valiant intermediate-group choices.
func New(d topo.Dragonfly, p Params, rng *sim.RNG) *Router {
	return &Router{D: d, Params: p, rng: rng}
}

// minimalPort returns the output port at switch sw that advances minimally
// toward group tg (tg != group(sw) implies a global or local hop; tg ==
// group(sw) routes within the group toward switch tsw).
func (r *Router) minimalPort(sw, tg, tsw int) int {
	d := r.D
	g := d.Group(sw)
	if g == tg {
		// Within the destination (or intermediate) group.
		return d.LocalPortTo(d.SwitchInGroup(sw), d.SwitchInGroup(tsw))
	}
	k := d.GlobalLinkIndex(g, tg)
	owner := d.SwitchID(g, k/d.H)
	if owner == sw {
		return d.GlobalPort(k % d.H)
	}
	return d.LocalPortTo(d.SwitchInGroup(sw), d.SwitchInGroup(owner))
}

// gatewaySwitch returns the switch in group g owning the global link toward
// group tg.
func (r *Router) gatewaySwitch(g, tg int) int {
	d := r.D
	k := d.GlobalLinkIndex(g, tg)
	return d.SwitchID(g, k/d.H)
}

// Route computes the routing decision for head flit f at switch sw.
// The oracle supplies output-queue depths for the adaptive choice.
func (r *Router) Route(f *proto.Flit, sw int, oracle Oracle) Decision {
	d := r.D
	dstSw, dstPort := d.EndpointSwitch(int(f.Dst))
	if sw == dstSw {
		return Decision{Out: dstPort, Eject: true, Phase: proto.PhaseMinimal, MidGroup: -1}
	}
	g := d.Group(sw)
	dstG := d.Group(dstSw)
	nextVC := f.Hops
	if nextVC >= proto.NumNetVCs {
		nextVC = proto.NumNetVCs - 1
	}

	phase := f.Phase
	mid := f.MidGroup
	nonMin := f.Flags&proto.FlagNonMinimal != 0

	if phase == proto.PhaseToMid {
		if int(mid) == g {
			phase = proto.PhaseMinimal
		} else {
			return Decision{
				Out:        r.minimalPort(sw, int(mid), r.gatewaySwitch(g, int(mid))),
				NextVC:     nextVC,
				Phase:      proto.PhaseToMid,
				MidGroup:   mid,
				NonMinimal: true,
			}
		}
	}

	if phase == proto.PhaseInject && g == dstG {
		// Intra-group destination: route minimally. (Valiant within a
		// group is not modeled; intra-group paths are at most one hop.)
		phase = proto.PhaseMinimal
	}

	if phase == proto.PhaseInject {
		minOut := r.minimalPort(sw, dstG, r.gatewaySwitch(g, dstG))
		if !r.Params.Adaptive {
			return r.commitMinimal(f, sw, minOut, nextVC, dstG)
		}
		// Candidate Valiant intermediate group.
		midG := r.randomMidGroup(g, dstG)
		nonOut := r.minimalPort(sw, midG, r.gatewaySwitch(g, midG))
		qMin := oracle.OutputQueue(minOut)
		qNon := oracle.OutputQueue(nonOut)
		if qMin > r.Params.Bias*qNon+r.Params.Threshold {
			return Decision{
				Out:        nonOut,
				NextVC:     nextVC,
				Phase:      proto.PhaseToMid,
				MidGroup:   int16(midG),
				NonMinimal: true,
			}
		}
		return r.commitMinimal(f, sw, minOut, nextVC, dstG)
	}

	// Committed minimal (or Valiant past its intermediate group). Within
	// the destination group the local hop targets the destination switch
	// itself; otherwise it heads for the gateway owning the global link.
	tsw := dstSw
	if g != dstG {
		tsw = r.gatewaySwitch(g, dstG)
	}
	return Decision{
		Out:        r.minimalPort(sw, dstG, tsw),
		NextVC:     nextVC,
		Phase:      proto.PhaseMinimal,
		MidGroup:   mid,
		NonMinimal: nonMin,
	}
}

// commitMinimal decides whether a minimally-routed packet stays in the
// progressive (re-decidable) state: it does so only while the next hop is a
// local hop inside the source group, i.e. the divert decision can be
// revisited at the gateway switch.
func (r *Router) commitMinimal(f *proto.Flit, sw, out int, nextVC uint8, dstG int) Decision {
	phase := proto.PhaseMinimal
	if r.D.PortClass(out) == topo.Local && f.Hops == 0 && r.Params.Adaptive {
		phase = proto.PhaseInject // gateway may still divert
	}
	return Decision{Out: out, NextVC: nextVC, Phase: phase, MidGroup: -1}
}

// randomMidGroup picks a uniformly random group distinct from both the
// source and destination groups.
func (r *Router) randomMidGroup(g, dstG int) int {
	n := r.D.Groups()
	m := r.rng.Intn(n - 2)
	if m >= g || m >= dstG {
		// Skip over the excluded groups in ascending order.
		lo, hi := g, dstG
		if lo > hi {
			lo, hi = hi, lo
		}
		if m >= lo {
			m++
		}
		if m >= hi {
			m++
		}
	}
	return m
}
