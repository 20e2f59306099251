// Package phasefix exercises the phasecheck analyzer: the executor's
// serial/parallel phase contract declared with //stashsim: directives.
package phasefix

import "sync/atomic"

// state mixes serial-only, owner-private, atomic and unannotated fields.
type state struct {
	//stashsim:phase serial -- folded by the PostCycle hook only
	serialCount int
	//stashsim:owner partition
	mine int
	hits atomic.Int64
	// plain carries no annotation, so parallel-phase writes to it are
	// unaccounted for.
	plain int
}

//stashsim:phase serial
func serialFold(s *state) {
	s.serialCount++
}

//stashsim:phase parallel
func step(s *state) {
	serialFold(s) // want "calls serialFold, which is annotated //stashsim:phase serial"
	s.mine++
	s.hits.Add(1)
	helper(s)
}

// helper is unannotated but reached from step, so it is checked as part
// of the parallel closure.
func helper(s *state) {
	if s.serialCount > 0 { // want "touches field serialCount"
		return
	}
	s.plain = 1 // want "writes unannotated field plain"
	var scratch state
	scratch.plain = 2 // a local value: mutates a stack copy, no finding
}

// slot is generic: the closure follows a call on an instance (slot[int])
// into the declared method's body.
type slot[T any] struct {
	//stashsim:owner partition
	v T
}

func (b *slot[T]) set(s *state, v T) {
	b.v = v
	_ = s.serialCount // want "touches field serialCount"
}

//stashsim:phase parallel
func stepThroughInstance(b *slot[int], s *state) {
	b.set(s, 1)
}

//stashsim:phase parallel
func stepAllowed(s *state) {
	//lint:allow phasecheck -- quiescent read; workers are parked at the barrier here
	_ = s.serialCount
}

// notReached touches serial state too, but no parallel seed reaches it,
// so it carries no finding: the proof is reachability, not text search.
func notReached(s *state) {
	s.serialCount = 0
}

//stashsim:owner worker
func ownedFunc() {} // want "owner does not apply to function ownedFunc"

type conflicted struct {
	//stashsim:phase serial
	//stashsim:owner worker
	x int // want "annotated both phase serial and owner worker"
}

//stashsim:typo parallel // want "unknown stashsim directive"
func typoed() {}

func misplacedHost() {
	//stashsim:phase parallel // want "misplaced //stashsim: directive"
	_ = 0
}

// Stepper mirrors sim.Stepper: the phase annotation follows dynamic
// dispatch into every implementation.
type Stepper interface {
	//stashsim:phase parallel
	Step(now int)
}

type comp struct{ n int }

func (c *comp) Step(now int) {} // want "comp.Step implements phasefix.Stepper.Step, annotated //stashsim:phase parallel"
