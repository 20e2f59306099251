package fault

import "stashsim/internal/sim"

// Timer is the resend state of one ledger record: the cycle its armed ACK
// timer fires and the retries charged to it. A record type embeds it; only
// the ledger reads or writes it.
type Timer struct {
	deadline int64 // zero until the record is armed
	retries  uint8
}

//stashsim:noalloc
func (t *Timer) timer() *Timer { return t }

// record is what a ledger asks of its record type T: that it embed Timer.
type record[T any] interface {
	*T
	//stashsim:noalloc
	timer() *Timer
}

// armed is one entry of a ledger's timer list. It is stale once its record
// is dropped or re-armed under another deadline.
type armed struct {
	deadline int64
	id       uint64
}

// Ledger is the record table of one rung of the resend ladder (DESIGN.md
// §10): the first-hop switch's stash-resend timers and the source
// endpoint's resend timers are two instances, each keeping its own record
// type T, which embeds Timer, and passing only what differs — the base
// timeout, the retry budget and what a firing does.
//
// Records are keyed by packet ID and recycled through a LIFO freelist, so
// the steady state allocates none. Armed timers sit in an append-ordered
// list, not a heap keyed by deadline: a re-arm appends a fresh entry and
// leaves the old one stale, and a scan every `every` cycles fires the due
// entries in the order they were armed, drops the stale ones and compacts
// the list in place. No map is iterated, so the firing order is a function
// of the run alone.
type Ledger[T any, P record[T]] struct {
	recs   map[uint64]P
	free   []P //stashsim:transient -- freelist; decoding draws the records from it
	timers []armed
	base   int64 //stashsim:derived -- configuration: the timeout of the first arming
	budget int   //stashsim:derived -- configuration: the retries a record may charge
	every  int64 //stashsim:derived -- configuration: the scan interval in cycles
}

// NewLedger returns an empty ledger whose timers fire base cycles after
// the first arming and back off exponentially per retry (Backoff), whose
// records may charge budget retries, and whose timers are scanned on every
// cycle that is a multiple of every.
func NewLedger[T any, P record[T]](base int64, budget int, every int64) Ledger[T, P] {
	return Ledger[T, P]{base: base, budget: budget, every: every}
}

// Len returns the number of records held.
func (l *Ledger[T, P]) Len() int { return len(l.recs) }

// Armed returns the length of the timer list, stale entries included.
func (l *Ledger[T, P]) Armed() int { return len(l.timers) }

// Get returns the record of packet id, or nil.
//
//stashsim:noalloc
func (l *Ledger[T, P]) Get(id uint64) P { return l.recs[id] }

// Add enters a zeroed, unarmed record for packet id and returns it.
//
//stashsim:noalloc
func (l *Ledger[T, P]) Add(id uint64) P {
	r := l.take()
	if l.recs == nil {
		//lint:allow allocfree -- one-time lazy init of the record map
		l.recs = make(map[uint64]P)
	}
	l.recs[id] = r
	return r
}

// take draws a zeroed record from the freelist, allocating one only when
// the freelist is empty.
//
//stashsim:noalloc
func (l *Ledger[T, P]) take() P {
	n := len(l.free)
	if n == 0 {
		//lint:allow allocfree -- amortized: records recycle through the freelist once the high-water mark is reached
		return new(T)
	}
	r := l.free[n-1]
	l.free = l.free[:n-1]
	var zero T
	*r = zero
	return r
}

// Drop removes record r of packet id and recycles it; the caller must not
// touch r afterwards. Its armed timer, if any, goes stale.
//
//stashsim:noalloc
func (l *Ledger[T, P]) Drop(id uint64, r P) {
	delete(l.recs, id)
	l.free = append(l.free, r)
}

// Arm arms record r of packet id to fire Backoff(base, retries) cycles
// after now.
//
//stashsim:noalloc
func (l *Ledger[T, P]) Arm(now int64, id uint64, r P) {
	t := r.timer()
	t.deadline = now + Backoff(l.base, int(t.retries))
	l.timers = append(l.timers, armed{deadline: t.deadline, id: id})
}

// Retry charges one retry to record r of packet id and re-arms it with
// backoff. It reports false, changing nothing, once the budget is spent.
//
//stashsim:noalloc
func (l *Ledger[T, P]) Retry(now int64, id uint64, r P) bool {
	t := r.timer()
	if int(t.retries) >= l.budget {
		return false
	}
	t.retries++
	l.Arm(now, id, r)
	return true
}

// Scan fires the timers due by cycle now, if now is a scan cycle: fire
// gets each record whose armed deadline has passed, in arming order, and
// may Drop or Retry it; a timer armed during the scan waits for the next.
//
//stashsim:noalloc
func (l *Ledger[T, P]) Scan(now int64, fire func(now int64, id uint64, r P)) {
	if len(l.timers) == 0 || l.every > 1 && now%l.every != 0 {
		return
	}
	n, w := len(l.timers), 0
	for i := 0; i < n; i++ {
		t := l.timers[i]
		r := l.recs[t.id]
		if r == nil || r.timer().deadline != t.deadline {
			continue // dropped or re-armed: a stale timer
		}
		if t.deadline > now {
			l.timers[w] = t
			w++
			continue
		}
		//lint:allow allocfree -- fire is the owner's firing, a method annotated noalloc where the owner is in scope (Switch.retryFired)
		fire(now, t.id, r)
	}
	// Keep the timers this scan left armed and those it armed.
	l.timers = l.timers[:w+copy(l.timers[w:], l.timers[n:])]
}

// NextScan returns the first cycle after now on which Scan may fire a
// timer, or sim.Never while none is armed.
//
//stashsim:noalloc
func (l *Ledger[T, P]) NextScan(now int64) int64 {
	switch {
	case len(l.timers) == 0:
		return sim.Never
	case l.every <= 1:
		return now + 1
	}
	return now + l.every - now%l.every
}
