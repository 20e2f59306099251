// Package allocfix exercises the allocfree analyzer: every allocating
// construct inside a //stashsim:noalloc body is flagged, and the
// annotation is closed over in-scope callees.
package allocfix

import "fmt"

type entry struct{ due, val int }

type ring struct {
	buf []entry
	fn  func()
}

//stashsim:noalloc
func hotHelper() {}

// helper is in scope but unannotated, so noalloc callers may not use it.
func helper() {}

//stashsim:noalloc
func sink(v any) {}

//stashsim:noalloc
func constructs(r *ring, n int, s string, b []byte) {
	tmp := make([]entry, n) // want "calls make"
	_ = tmp
	p := new(entry) // want "calls new"
	_ = p
	sl := []int{1, 2} // want "builds a slice literal"
	_ = sl
	m := map[int]int{} // want "builds a map literal"
	_ = m
	e := &entry{due: n} // want "takes the address of a composite literal"
	_ = e
	f := func() {} // want "contains a func literal"
	_ = f
	go hotHelper()     // want "starts a goroutine"
	_ = s + "x"        // want "concatenates strings"
	_ = []byte(s)      // want "converts a string to a slice"
	_ = string(b)      // want "converts to string"
	_ = any(n)         // want "converts a value to an interface"
	sink(n)            // want "boxes a int into interface parameter 0 of sink"
	helper()           // want "calls helper, which is not annotated //stashsim:noalloc"
	_ = fmt.Sprint()   // want "calls fmt.Sprint; package fmt is not on the allocation-free allowlist"
	r.fn()             // want "makes a dynamic call through a function value"
	hotHelper()        // annotated callee: fine
	v := entry{due: n} // struct value literal: no heap allocation
	_ = v
}

//stashsim:noalloc
func appends(r *ring, e entry, dst []entry) []entry {
	r.buf = append(r.buf, e) // self-assign: the sanctioned warm-cap form
	out := append(dst, e)    // want "uses append outside the sanctioned self-assign form"
	return out
}

//stashsim:noalloc
func warmGrow(n int) []entry {
	//lint:allow allocfree -- wiring-time warm-up; measured 0 allocs/op afterwards
	buf := make([]entry, 0, n)
	return buf
}

// queue is generic: a call through an instance (queue[entry]) resolves to
// the declared method, which is where the directive hangs.
type queue[T any] struct{ buf []T }

//stashsim:noalloc
func (q *queue[T]) push(v T) { q.buf = append(q.buf, v) }

func (q *queue[T]) trim() {}

//stashsim:noalloc
func throughInstance(q *queue[entry], e entry) {
	q.push(e) // annotated on the declaration; the T parameter takes e unboxed
	q.trim()  // want "calls trim, which is not annotated //stashsim:noalloc"
}

// coldPath is unannotated: it may allocate freely.
func coldPath(n int) []entry {
	return make([]entry, n)
}

// Stepper's noalloc annotation follows into implementations.
type Stepper interface {
	//stashsim:noalloc
	Step(now int)
}

type comp struct{ n int }

func (c *comp) Step(now int) { c.n = now } // want "comp.Step implements allocfix.Stepper.Step, annotated //stashsim:noalloc"
