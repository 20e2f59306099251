package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Stepper is a simulation component advanced once per cycle. Components may
// communicate only through latency>=1 channels: values written at cycle t
// are never read before cycle t+1, so components may step in any order
// within a cycle, and partitions whose connecting channels all have latency
// >= L may run L cycles apart.
type Stepper interface {
	// Step advances the component one cycle. It runs concurrently with
	// the Step of components in other partitions and must stay
	// allocation-free in the steady state; both annotations propagate to
	// implementations.
	//
	//stashsim:phase parallel
	//stashsim:noalloc
	Step(now Tick)

	// NextWake is asked right after Step(now): absent new input, what is
	// the first cycle after now at which Step can change the component's
	// state (Never if none)? The executor skips the component until then,
	// or until whatever hands it new input lowers its Executor.WakeSlot.
	// Stepping a sleeping component must change no simulator state, so an
	// early answer is always safe; only a late one is a bug.
	//
	//stashsim:phase parallel
	//stashsim:noalloc
	NextWake(now Tick) Tick
}

// Never is the NextWake answer of a component with nothing pending.
const Never Tick = math.MaxInt64

// NextMultiple returns the smallest multiple of every that is >= from: the
// next firing cycle of a fixed-interval schedule anchored at cycle 0. An
// interval below one fires every cycle.
func NextMultiple(from, every Tick) Tick {
	if every < 1 {
		return from
	}
	return (from + every - 1) / every * every
}

// EpochDrainer delivers one partition's buffered cross-partition traffic
// at an epoch boundary (the network implements it over the staged links
// whose consumer side the partition owns). DrainEpoch runs on the
// partition's goroutine immediately after the epoch-entry barrier, before
// any component steps, with the epoch counter already advanced — so it
// drains the slab the producers filled during the previous epoch.
type EpochDrainer interface {
	// DrainEpoch moves the previous epoch's staged entries onto the
	// partition's rings.
	//
	//stashsim:phase parallel
	//stashsim:noalloc
	DrainEpoch(epoch int64)
}

// Executor drives partitions of components through simulated cycles in
// epochs: conservative parallel simulation with lookahead. Each barrier
// round releases every partition into a span of cycles [now, end), which
// it steps with no further synchronization. A span is never longer than
// the lookahead — the smallest latency of any channel between two
// partitions — and ends at the Run bound or at the cut BeforeEpoch names,
// whichever comes first.
//
// Serial work happens only between spans, on the goroutine calling Run:
// BeforeEpoch(now) runs with every cycle before now complete and none of
// now begun, AfterEpoch(end) with every cycle before end complete. Work
// that must precede cycle c therefore has BeforeEpoch cut at c and runs in
// the next call; work that must follow cycle c has it cut at c+1 and runs
// in AfterEpoch. Either is cycle-exact whatever the epoch length, and a
// BeforeEpoch that always answers now+1 degrades the executor to a
// per-cycle barrier.
//
// One partition runs inline on the calling goroutine: no goroutines, no
// barrier. Two or more run on long-lived workers that park at the entry
// barrier between epochs and between Runs; the coordinator publishes each
// span with atomic stores that the barrier's release edge orders before
// any worker reads them, so the steady state is channel- and
// allocation-free.
//
// Results are identical for any partitioning: each component is pinned to
// one partition (so its private state is touched by exactly one
// goroutine), nothing a concurrent partition sends during an epoch is due
// before the next one, and the barriers order every hook with respect to
// every step.
type Executor struct {
	parts   [][]Stepper
	aCounts []int
	// wake[w][i] is the first cycle at which partition w must step its
	// component i again: the component's own NextWake, lowered through
	// WakeSlot by whatever hands it input. Derived state: zero (all awake)
	// is always a correct table.
	//
	//stashsim:owner partition
	wake      [][]Tick
	drains    []EpochDrainer
	lookahead Tick
	barrier   *Barrier // nil with a single partition

	// BeforeEpoch, when non-nil, runs serially before each epoch with its
	// first cycle and returns the cut: the first cycle, after now, that the
	// epoch must not step. Set before the first Run, like AfterEpoch.
	BeforeEpoch func(now Tick) (cut Tick)
	// AfterEpoch, when non-nil, runs serially after each epoch with the
	// first cycle the components have NOT yet stepped.
	AfterEpoch func(next Tick)

	// Profiler, when non-nil, receives per-partition per-phase timings.
	// Set before the first Run. A profiler sized for a different partition
	// count makes Run panic rather than silently run unprofiled.
	Profiler *ExecProfiler

	cur    atomic.Int64 // first cycle of the released span
	curLen atomic.Int64 // cycles in the released span
	epoch  atomic.Int64 // barrier-round counter; parity picks link slabs
	quit   atomic.Bool  // set by Close; workers observe it at the entry barrier
	// The coordinator's profiling clock, published for the workers: epPub
	// is its reading as the last epoch's exit barrier opened, epRel the
	// reading the released epoch's release wait counts from (the previous
	// epPub, or where this Run began). Workers cut their waits at these
	// instead of at readings of their own, so each lane's phases tile the
	// Run's wall whenever the worker happens to get scheduled.
	epRel, epPub atomic.Int64

	mu      sync.Mutex
	started bool           // workers spawned (by the first Run)
	workers sync.WaitGroup // live worker goroutines; Close waits for them
}

// NewPartitionedExecutor builds an executor over caller-chosen partitions
// (the network passes blocks of dragonfly groups or switches). Each
// partition's components must lead with its aCounts[w] phase-A components
// (endpoints); the split is purely observational, for the profiler.
// lookahead is the longest span partitions may run between barriers and
// must not exceed the smallest latency among the channels that cross
// partitions. drains[w], when drains is non-nil, delivers partition w's
// buffered cross-partition traffic at each epoch entry.
func NewPartitionedExecutor(parts [][]Stepper, aCounts []int, lookahead Tick, drains []EpochDrainer) *Executor {
	if len(parts) == 0 {
		panic("sim: executor needs at least one partition")
	}
	if len(aCounts) != len(parts) {
		panic("sim: aCounts length must match partition count")
	}
	for w, p := range parts {
		if aCounts[w] < 0 || aCounts[w] > len(p) {
			panic("sim: partition phase-A count out of range")
		}
	}
	if lookahead < 1 {
		panic("sim: epoch lookahead must be at least one cycle")
	}
	if drains != nil && len(drains) != len(parts) {
		panic("sim: epoch drain list must match partition count")
	}
	e := &Executor{parts: parts, aCounts: aCounts, drains: drains, lookahead: lookahead, wake: make([][]Tick, len(parts))}
	for w, p := range parts {
		e.wake[w] = make([]Tick, len(p))
	}
	if len(parts) > 1 {
		e.barrier = NewBarrier(len(parts) + 1)
	}
	return e
}

// EpochClock exposes the executor's barrier-round counter; staged links
// index their slabs by its parity.
func (e *Executor) EpochClock() *atomic.Int64 { return &e.epoch }

// WakeSlot returns the wake-table slot of partition w's component i, for
// wiring into whatever hands that component input, which stores the due
// cycle there if it is sooner than the slot's. Between Runs anyone may
// write it; during one, only partition w's goroutine.
func (e *Executor) WakeSlot(w, i int) *Tick { return &e.wake[w][i] }

// WakeAll marks every component due now, for a caller that may have
// changed component state between Runs.
//
//stashsim:phase serial
func (e *Executor) WakeAll() {
	for _, t := range e.wake {
		clear(t)
	}
}

// Run advances all components from cycle `from` (inclusive) to `to`
// (exclusive). Within each cycle every component steps exactly once. This
// is the coordinator loop: one iteration per epoch.
//
//stashsim:phase serial
func (e *Executor) Run(from, to Tick) {
	e.mu.Lock()
	defer e.mu.Unlock()
	prof := e.Profiler
	if prof != nil && prof.Workers() != len(e.parts) {
		panic(fmt.Sprintf("sim: profiler sized for %d workers attached to a %d-partition executor; attach it after the worker count is final",
			prof.Workers(), len(e.parts)))
	}
	if e.quit.Load() {
		panic("sim: Run on a closed executor")
	}
	if e.barrier != nil && !e.started {
		e.started = true
		e.workers.Add(len(e.parts))
		for w := range e.parts {
			go e.worker(w, prof)
		}
	}
	// The readings chain — an epoch's wall slice begins where the last
	// one's ended — so the loop's own time is wall too (it lands in the next
	// pre-hook slice) and wall is exactly the Run's duration.
	t0 := prof.clock()
	rel := t0
	for now := from; now < to; {
		end := min(to, now+e.lookahead)
		if e.BeforeEpoch != nil {
			cut := e.BeforeEpoch(now)
			if cut <= now {
				panic(fmt.Sprintf("sim: BeforeEpoch(%d) cut the epoch at %d, before it could step a cycle", now, cut))
			}
			end = min(end, cut)
		}
		t1 := prof.clock()
		e.epoch.Add(1)
		var dDrain, dA, dB, t2 int64
		if e.barrier == nil {
			dDrain, dA, dB, t2 = e.span(0, now, end, prof, t1)
		} else {
			e.cur.Store(int64(now))
			e.curLen.Store(int64(end - now))
			e.epRel.Store(rel)
			e.barrier.Wait() // release partitions into [now, end)
			e.barrier.Wait() // every partition has stepped the span
			t2 = prof.clock()
			e.epPub.Store(t2)
		}
		if e.AfterEpoch != nil {
			e.AfterEpoch(end)
		}
		t3 := prof.clock()
		if e.barrier == nil {
			prof.recWorkerEpoch(int64(now), 0, t1, 0, dDrain, dA, dB, 0)
		}
		prof.recCoordEpoch(int64(now), t0, t1-t0, t2-t1, t3-t2, int64(end-now))
		now, t0, rel = end, t3, t2
	}
}

// worker is the long-lived loop of one partition when there are several:
// park at the entry barrier (between epochs and between Runs), run the
// released span, publish its writes at the exit barrier. It exits when
// Close releases it with quit set.
//
// For the profiler, an epoch's release wait counts from the coordinator's
// epRel and its publish wait up to the coordinator's epPub, so the record
// is held until the next release (or Close) makes epPub known. A lane's
// phases then sum to the Run's wall less its final post-hook, which
// nothing waits on; time parked between Runs belongs to no lane.
//
//stashsim:phase parallel
//stashsim:noalloc
func (e *Executor) worker(lane int, prof *ExecProfiler) {
	defer e.workers.Done()
	var start Tick
	var t0, dRel, dDrain, dA, dB, tDone int64
	for held := false; ; held = true {
		e.barrier.Wait() // wait for the coordinator's hooks
		if held {
			prof.recWorkerEpoch(int64(start), lane, t0, dRel, dDrain, dA, dB, e.epPub.Load()-tDone)
		}
		if e.quit.Load() {
			return
		}
		start, t0 = Tick(e.cur.Load()), e.epRel.Load()
		t1 := prof.clock()
		dRel = t1 - t0
		dDrain, dA, dB, tDone = e.span(lane, start, start+Tick(e.curLen.Load()), prof, t1)
		e.barrier.Wait() // publish this epoch's writes
	}
}

// span runs one partition through one epoch [start, end): deliver the
// previous epoch's cross-partition traffic, then free-run the components
// that have something due (the wake table) with no synchronization. This
// is the one stepping loop — the phasecheck closure and the zero-alloc
// steady-state contract both root here.
// Determinism holds because nothing staged by a concurrent partition this
// epoch is due before the next one, so every flit and credit reaches its
// ring before its due cycle, in per-link FIFO order, for any interleaving.
// For the profiler it takes the clock reading at entry and returns the
// drain time, the two work sub-phase totals and the reading at exit; the
// readings chain, so no time between phases goes unattributed.
//
//stashsim:phase parallel
//stashsim:noalloc
func (e *Executor) span(lane int, start, end Tick, prof *ExecProfiler, tIn int64) (dDrain, dA, dB, tOut int64) {
	if e.drains != nil {
		e.drains[lane].DrainEpoch(e.epoch.Load())
	}
	tOut = prof.clock()
	dDrain = tOut - tIn
	mine, wake, a := e.parts[lane], e.wake[lane], e.aCounts[lane]
	var nA, nB int64
	for now := start; now < end; now++ {
		nA += stepDue(mine[:a], wake[:a], now)
		tA := prof.clock()
		nB += stepDue(mine[a:], wake[a:], now)
		dA += tA - tOut
		tOut = prof.clock()
		dB += tOut - tA
	}
	prof.recSteps(lane, PhaseWorkA, nA, int64(end-start)*int64(a)-nA)
	prof.recSteps(lane, PhaseWorkB, nB, int64(end-start)*int64(len(mine)-a)-nB)
	return
}

// stepDue steps the components whose wake slot has come due, stores each
// one's answer for when to come back, and returns how many it stepped. A
// sender stepping later in the cycle may lower a slot again, never raise it.
//
//stashsim:phase parallel
//stashsim:noalloc
func stepDue(cs []Stepper, wake []Tick, now Tick) (stepped int64) {
	for i, c := range cs {
		if wake[i] > now {
			continue
		}
		c.Step(now)
		wake[i] = c.NextWake(now)
		stepped++
	}
	return
}

// Close stops the worker goroutines, if any, and returns once they have
// exited. It is terminal — to continue, build a new executor over the same
// components — and idempotent.
//
//stashsim:phase serial
func (e *Executor) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.quit.Swap(true) && e.started {
		e.barrier.Wait() // release parked workers; they observe quit and exit
		e.workers.Wait()
	}
}
