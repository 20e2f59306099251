// Package topo models the canonical dragonfly topology the paper evaluates
// on: groups of fully-connected switches, one global link per
// (group-pair), endpoints concentrated on every switch. It provides port
// maps, link classes with their physical latencies, and the analytic
// buffer-asymmetry model behind the paper's Table I.
package topo

import "fmt"

// LinkClass categorizes a switch port by what its link connects to.
type LinkClass uint8

const (
	// Endpoint ports connect to network endpoints (< 1 m links).
	Endpoint LinkClass = iota
	// Local ports connect switches within a group (< 5 m links).
	Local
	// Global ports connect groups over long optical links (< 100 m).
	Global
)

// String returns the class name.
func (c LinkClass) String() string {
	switch c {
	case Endpoint:
		return "endpoint"
	case Local:
		return "local"
	case Global:
		return "global"
	}
	return fmt.Sprintf("LinkClass(%d)", uint8(c))
}

// Dragonfly describes a canonical dragonfly: A switches per group, each
// with P endpoints and H global links; groups are fully connected pairwise
// by exactly one global link, giving G = A*H + 1 groups.
type Dragonfly struct {
	P int // endpoints per switch
	A int // switches per group
	H int // global links per switch
}

// Validate checks structural constraints.
func (d Dragonfly) Validate() error {
	if d.P <= 0 || d.A <= 0 || d.H <= 0 {
		return fmt.Errorf("topo: non-positive dragonfly parameter %+v", d)
	}
	return nil
}

// Groups returns the number of groups, A*H + 1.
func (d Dragonfly) Groups() int { return d.A*d.H + 1 }

// NumSwitches returns the total switch count.
func (d Dragonfly) NumSwitches() int { return d.Groups() * d.A }

// NumEndpoints returns the total endpoint count.
func (d Dragonfly) NumEndpoints() int { return d.NumSwitches() * d.P }

// Radix returns the switch radix: P endpoint + (A-1) local + H global.
func (d Dragonfly) Radix() int { return d.P + d.A - 1 + d.H }

// Port-range helpers. Ports are laid out per switch as
// [0,P) endpoints, [P, P+A-1) local, [P+A-1, radix) global.

// PortClass returns the link class of a port index.
func (d Dragonfly) PortClass(port int) LinkClass {
	switch {
	case port < d.P:
		return Endpoint
	case port < d.P+d.A-1:
		return Local
	default:
		return Global
	}
}

// EndpointPort returns the port index for the i-th endpoint of a switch.
func (d Dragonfly) EndpointPort(i int) int { return i }

// LocalPortTo returns the port on switch-in-group `from` that connects to
// switch-in-group `to` (both in [0,A), from != to).
func (d Dragonfly) LocalPortTo(from, to int) int {
	if from == to {
		panic("topo: local port to self")
	}
	if to < from {
		return d.P + to
	}
	return d.P + to - 1
}

// GlobalPort returns the port index of the k-th global link of a switch
// (k in [0,H)).
func (d Dragonfly) GlobalPort(k int) int { return d.P + d.A - 1 + k }

// Group returns the group of a switch id.
func (d Dragonfly) Group(sw int) int { return sw / d.A }

// SwitchInGroup returns a switch id's index within its group.
func (d Dragonfly) SwitchInGroup(sw int) int { return sw % d.A }

// SwitchID returns the switch id for (group, indexInGroup).
func (d Dragonfly) SwitchID(group, idx int) int { return group*d.A + idx }

// EndpointSwitch returns the switch an endpoint attaches to and its port.
func (d Dragonfly) EndpointSwitch(ep int) (sw, port int) {
	return ep / d.P, ep % d.P
}

// EndpointID returns the endpoint id attached to (switch, endpointIndex).
func (d Dragonfly) EndpointID(sw, i int) int { return sw*d.P + i }

// GlobalLinkIndex returns, for source group g and destination group t
// (g != t), the group-local global-link index k in [0, A*H) that carries
// traffic from g to t under the canonical consecutive allocation.
func (d Dragonfly) GlobalLinkIndex(g, t int) int {
	if g == t {
		panic("topo: global link to self group")
	}
	if t < g {
		return t
	}
	return t - 1
}

// GlobalLinkTarget returns the destination group of group-local global
// link k of group g under the canonical allocation (k in [0, A*H)).
func (d Dragonfly) GlobalLinkTarget(g, k int) int {
	if k < 0 || k >= d.Groups()-1 {
		panic("topo: global link index out of range")
	}
	if k < g {
		return k
	}
	return k + 1
}

// GlobalRoute resolves the switch and port at both ends of the global link
// between groups g and t: the switch in g owning the link to t, the port
// on that switch, and likewise for the reverse direction.
func (d Dragonfly) GlobalRoute(g, t int) (swG, portG, swT, portT int) {
	kg := d.GlobalLinkIndex(g, t)
	kt := d.GlobalLinkIndex(t, g)
	swG = d.SwitchID(g, kg/d.H)
	portG = d.GlobalPort(kg % d.H)
	swT = d.SwitchID(t, kt/d.H)
	portT = d.GlobalPort(kt % d.H)
	return
}

// Neighbor returns, for a switch and one of its non-endpoint ports, the
// connected switch and the port on that switch.
func (d Dragonfly) Neighbor(sw, port int) (nsw, nport int) {
	g, idx := d.Group(sw), d.SwitchInGroup(sw)
	switch d.PortClass(port) {
	case Local:
		to := port - d.P
		if to >= idx {
			to++
		}
		return d.SwitchID(g, to), d.LocalPortTo(to, idx)
	case Global:
		k := idx*d.H + (port - d.GlobalPort(0))
		t := d.GlobalLinkTarget(g, k)
		swG, portG, swT, portT := d.GlobalRoute(g, t)
		if swG != sw || portG != port {
			panic("topo: inconsistent global link mapping")
		}
		return swT, portT
	default:
		panic("topo: Neighbor called on an endpoint port")
	}
}

// Latencies holds one-way channel latencies in internal cycles per class.
type Latencies struct {
	Endpoint, Local, Global int64
}

// Of returns the latency for a link class.
func (l Latencies) Of(c LinkClass) int64 {
	switch c {
	case Endpoint:
		return l.Endpoint
	case Local:
		return l.Local
	default:
		return l.Global
	}
}

// PaperLatencies converts the paper's one-way nanosecond latencies
// (5/40/500 ns) into internal 1.3 GHz cycles, rounding up.
func PaperLatencies() Latencies {
	conv := func(ns int64) int64 { return (ns*13 + 9) / 10 }
	return Latencies{Endpoint: conv(5), Local: conv(40), Global: conv(500)}
}
