// Package traffic provides the synthetic workload generators of the
// paper's evaluation: uniform-random Bernoulli arrivals, saturating
// sources, hotspot aggressors, and bursty (multi-packet-message) variants.
// Generators are closures installed as endpoint.Endpoint.Gen hooks.
//
// Every generator is defined by its per-cycle form — what it does, and
// what it draws from its stream, when it is called once every cycle — and
// each one returns the next cycle it must be called at. The Bernoulli
// generators (Uniform, Permutation) find their next arrival by drawing
// ahead on a copy of their stream and then move the stream itself past the
// misses with one O(1) sim.RNG.Skip, so an endpoint between arrivals is
// not stepped at all; the stream still sees exactly the per-cycle draws,
// in the same order (see endpoint.Endpoint.Gen for the contract, and the
// barrier rule a checkpoint applies to it).
package traffic

import (
	"stashsim/internal/endpoint"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
)

// Gen is the per-endpoint generator hook type: it runs the generator for
// cycle now and returns the next cycle it must run.
type Gen = func(now sim.Tick, e *endpoint.Endpoint) sim.Tick

// horizon bounds one lookahead, in draws: a stream with no arrival that
// many cycles ahead (a load of zero, or nearly) announces the cycle after
// them and looks again from there.
const horizon = 1 << 12

// bernoulli is the generator whose per-cycle form is
//
//	if now >= start && rng.Bernoulli(p) { send(e) }
//
// with send drawing whatever else an arrival needs from rng. Called on a
// cycle before the one it announced, it draws nothing and announces that
// cycle again; on the announced cycle it runs arrive.
func bernoulli(rng *sim.RNG, p float64, start sim.Tick, send func(e *endpoint.Endpoint)) Gen {
	a := &arrivals{rng: rng, p: p, start: start, send: send}
	return func(now sim.Tick, e *endpoint.Endpoint) sim.Tick {
		if now < a.next {
			return a.next
		}
		return a.arrive(now, e)
	}
}

// arrivals is bernoulli's state. Its work is a method and not part of the
// closure so that it is compiled here, with the draws inlined: a closure
// body inlined into a caller in another package keeps its calls.
type arrivals struct {
	rng   *sim.RNG
	p     float64
	start sim.Tick
	next  sim.Tick // the first cycle not known to miss
	send  func(e *endpoint.Endpoint)
}

// arrive runs cycle now, the first not known to miss, and returns the
// cycle to announce. It draws now's Bernoulli (and, on a hit, the
// arrival's own draws), counts the misses up to the next arrival on a copy
// of the stream, and skips the stream past them: the stream is left where
// the per-cycle form would leave it at the start of the announced cycle,
// which redraws the arrival there. Before start it draws nothing, and so —
// one draw per skipped cycle being the contract — announces only the next
// cycle.
func (a *arrivals) arrive(now sim.Tick, e *endpoint.Endpoint) sim.Tick {
	if now < a.start {
		return now + 1
	}
	p := a.p
	if a.rng.Bernoulli(p) {
		a.send(e)
	}
	probe := *a.rng
	misses := int64(0)
	for misses < horizon && !probe.Bernoulli(p) {
		misses++
	}
	a.rng.Skip(misses)
	a.next = now + 1 + misses
	return a.next
}

// Uniform returns a Bernoulli uniform-random generator: messages of
// msgFlits flits arrive with the probability that produces `load` fraction
// of channel capacity, each to a uniformly random other endpoint drawn
// from dests (pass nil for all endpoints).
//
// rate is the channel capacity in flits/cycle (RateNum/RateDen); start
// delays generation (cycles).
func Uniform(rng *sim.RNG, numEndpoints int, dests []int32, load, rate float64, msgFlits int, class proto.Class, start sim.Tick) Gen {
	return bernoulli(rng, load*rate/float64(msgFlits), start, func(e *endpoint.Endpoint) {
		e.EnqueueMessage(randomDest(rng, numEndpoints, dests, e.ID), msgFlits, class, 0)
	})
}

// Saturating returns a generator that keeps the endpoint's injection
// backlog topped up so it always injects at the maximum rate, sending
// msgFlits-flit messages to uniformly random destinations. The backlog is
// kept shallow (two messages) so stopping the generator drains quickly.
// It runs every cycle: the backlog drains as the endpoint injects.
func Saturating(rng *sim.RNG, numEndpoints int, dests []int32, msgFlits int, class proto.Class, start, stop sim.Tick) Gen {
	return func(now sim.Tick, e *endpoint.Endpoint) sim.Tick {
		if now < start || (stop > 0 && now >= stop) {
			return now + 1
		}
		for e.QueuedFlits() < int64(2*msgFlits) {
			dst := randomDest(rng, numEndpoints, dests, e.ID)
			e.EnqueueMessage(dst, msgFlits, class, 0)
		}
		return now + 1
	}
}

// Hotspot returns a generator for one aggressor source that streams
// msgFlits-flit messages to a single fixed destination at the maximum
// rate, beginning at start. Like Saturating it runs every cycle.
func Hotspot(dst int32, msgFlits int, class proto.Class, start sim.Tick) Gen {
	return func(now sim.Tick, e *endpoint.Endpoint) sim.Tick {
		if now < start {
			return now + 1
		}
		for e.QueuedFlits() < int64(2*msgFlits) {
			e.EnqueueMessage(dst, msgFlits, class, 0)
		}
		return now + 1
	}
}

// Permutation returns a generator sending all traffic to one fixed partner
// at the given load (used by tests as an adversarial pattern).
func Permutation(rng *sim.RNG, partner int32, load, rate float64, msgFlits int, class proto.Class) Gen {
	return bernoulli(rng, load*rate/float64(msgFlits), 0, func(e *endpoint.Endpoint) {
		e.EnqueueMessage(partner, msgFlits, class, 0)
	})
}

func randomDest(rng *sim.RNG, numEndpoints int, dests []int32, self int32) int32 {
	if dests == nil {
		for {
			d := int32(rng.Intn(numEndpoints))
			if d != self {
				return d
			}
		}
	}
	for {
		d := dests[rng.Intn(len(dests))]
		if d != self {
			return d
		}
	}
}
