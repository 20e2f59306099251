// Package snapfix exercises the snapcheck analyzer: port has a state walk
// in snapshot.go, so every one of its fields must be selected there or
// say why it is not state.
package snapfix

// port is a stateful component in the shape of the real switch ports.
type port struct {
	id      int           //stashsim:derived -- structural: rebuilt from the configuration
	credits int           // walked
	pending []entry       // walked through an element walk
	latch   [2]lock       // held by value; the walk selects lock.pkt
	recent  window[entry] // a generic struct held by value; the walk selects window.n

	// armed is rebuilt from pending after restore.
	//
	//stashsim:derived -- rebuilt from len(pending) by rearm
	armed bool

	scratch []uint64 //stashsim:transient -- per-cycle request masks

	// A field added to the struct and forgotten in the walk: flagged.
	retries int // want "field port.retries is not selected by the state walk"

	// A bare directive has no reason, so it marks nothing (phasecheck,
	// the vocabulary owner, reports the malformed comment itself).
	//
	//stashsim:transient
	probe func() // want "field port.probe is not selected by the state walk"
}

// entry is walked by a function literal handed to the slice generic.
type entry struct {
	at   int64
	size uint8
	seen bool // want "field entry.seen is not selected by the state walk"
}

// lock is held by value in a walked field, and the walk selects one of
// its fields, so the other one is owed an answer too.
type lock struct {
	pkt    uint64
	active bool // want "field lock.active is not selected by the state walk"
}

// window is generic and held as window[entry]: its fields and their
// directives are the declaration's, whatever the instance.
type window[T any] struct {
	slots []T //stashsim:derived -- storage layout; rebuilt by the pushes of the walk
	n     int
	hits  int // want "field window.hits is not selected by the state walk"
}

// plan is configuration: no walk takes it and none selects into it, so it
// is not checked.
type plan struct {
	at int64
}

// bystander has no state walk; its fields owe nothing.
type bystander struct {
	anything int
}
