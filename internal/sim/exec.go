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
// within a cycle, and blocks of components whose connecting channels all
// have latency >= L may run L cycles apart.
type Stepper interface {
	// Step advances the component one cycle. It runs concurrently with
	// the Step of components on other workers and must stay
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

// EpochDrainer delivers one worker's buffered cross-worker traffic at an
// epoch boundary (the network implements it over the staged links whose
// consumer side the worker owns). DrainEpoch runs on the worker's
// goroutine immediately after the epoch-entry barrier, before any
// component steps, with the epoch counter already advanced — so it drains
// the slab the producers filled during the previous epoch.
type EpochDrainer interface {
	// DrainEpoch moves the previous epoch's staged entries onto the
	// worker's link paths.
	//
	//stashsim:phase parallel
	//stashsim:noalloc
	DrainEpoch(epoch int64)
}

// Executor drives blocks of components through simulated cycles in epochs:
// conservative simulation with lookahead. An epoch is a span of cycles
// [now, end) never longer than the lookahead — the smallest latency of any
// channel between two blocks — so nothing one block sends during an epoch
// is due in another before the epoch ends, and the blocks of an epoch may
// be stepped in any order, or at once.
//
// The executor uses that freedom twice. A worker steps its blocks back to
// back, each through the whole epoch before it touches the next
// (`for block { for cycle { stepDue } }`), so a block's state stays in the
// host's cache for the length of the epoch instead of being evicted by
// every other block once a cycle. And several workers step their runs of
// blocks concurrently, meeting at a barrier between epochs. The first is
// independent of the second: one worker blocks time exactly like many.
//
// Serial work happens only between epochs, on the goroutine calling Run:
// BeforeEpoch(now) runs with every cycle before now complete and none of
// now begun, AfterEpoch(end) with every cycle before end complete. Work
// that must precede cycle c therefore has BeforeEpoch cut at c and runs in
// the next call; work that must follow cycle c has it cut at c+1 and runs
// in AfterEpoch. Either is cycle-exact whatever the epoch length, and a
// BeforeEpoch that always answers now+1 degrades the executor to one cycle
// per epoch: every block steps the cycle, then every block the next.
//
// One worker runs inline on the calling goroutine: no goroutines, no
// barrier. Two or more are long-lived goroutines that park at the entry
// barrier between epochs and between Runs; the coordinator publishes each
// span with atomic stores that the barrier's release edge orders before
// any worker reads them, so the steady state is channel- and
// allocation-free.
//
// Results are identical for any blocking and any worker count: each
// component is pinned to one block and each block to one worker (so its
// private state is touched by exactly one goroutine), nothing another
// block sends during an epoch is due before the next one, and the barriers
// order every hook with respect to every step.
type Executor struct {
	blocks []block
	// first[w] is worker w's first block; its run ends at first[w+1].
	first     []int
	drains    []EpochDrainer
	lookahead Tick
	barrier   *Barrier // nil with a single worker

	// BeforeEpoch, when non-nil, runs serially before each epoch with its
	// first cycle and returns the cut: the first cycle, after now, that the
	// epoch must not step. Set before the first Run, like AfterEpoch.
	BeforeEpoch func(now Tick) (cut Tick)
	// AfterEpoch, when non-nil, runs serially after each epoch with the
	// first cycle the components have NOT yet stepped.
	AfterEpoch func(next Tick)

	// Profiler, when non-nil, receives per-worker per-phase timings. Set
	// before the first Run. A profiler sized for a different worker count
	// makes Run panic rather than silently run unprofiled.
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

// block is the unit the stepping loop iterates: its components, the first
// a of them phase A, and their dense wake table — wake[i] is the first
// cycle at which component i must be stepped again: the component's own
// NextWake, lowered through WakeSlot by whatever hands it input. Derived
// state: zero (all awake) is always a correct table.
//
//stashsim:owner partition
type block struct {
	comps []Stepper
	wake  []Tick
	a     int
}

// WorkerOf is the executor's split of blocks over workers: contiguous
// runs as even as they come, block b going to the worker w with
// w*blocks/workers <= b < (w+1)*blocks/workers. Whoever wires the channels
// between blocks (the network) asks it which of them cross workers.
func WorkerOf(block, blocks, workers int) int { return ((block+1)*workers - 1) / blocks }

// NewPartitionedExecutor builds an executor over caller-chosen blocks (the
// network passes dragonfly groups) split over workers by WorkerOf. Each
// block's components must lead with its aCounts[b] phase-A components
// (endpoints); the split is purely observational, for the profiler.
// lookahead is the longest span of cycles an epoch may cover and must not
// exceed the smallest latency among the channels that cross blocks.
// drains[w], when drains is non-nil, delivers worker w's buffered
// cross-worker traffic at each epoch entry.
func NewPartitionedExecutor(blocks [][]Stepper, aCounts []int, workers int, lookahead Tick, drains []EpochDrainer) *Executor {
	if workers < 1 || workers > len(blocks) {
		panic("sim: executor needs at least one worker and at least one block for each")
	}
	if len(aCounts) != len(blocks) {
		panic("sim: aCounts length must match block count")
	}
	for b, cs := range blocks {
		if aCounts[b] < 0 || aCounts[b] > len(cs) {
			panic("sim: block phase-A count out of range")
		}
	}
	if lookahead < 1 {
		panic("sim: epoch lookahead must be at least one cycle")
	}
	if drains != nil && len(drains) != workers {
		panic("sim: epoch drain list must match worker count")
	}
	e := &Executor{blocks: make([]block, len(blocks)), drains: drains, lookahead: lookahead, first: make([]int, workers+1)}
	for b, cs := range blocks {
		e.blocks[b] = block{comps: cs, wake: make([]Tick, len(cs)), a: aCounts[b]}
		e.first[WorkerOf(b, len(blocks), workers)+1] = b + 1
	}
	if workers > 1 {
		e.barrier = NewBarrier(workers + 1)
	}
	return e
}

// EpochClock exposes the executor's barrier-round counter; staged links
// index their slabs by its parity.
func (e *Executor) EpochClock() *atomic.Int64 { return &e.epoch }

// WakeSlot returns the wake-table slot of block b's component i, for
// wiring into whatever hands that component input, which stores the due
// cycle there if it is sooner than the slot's. Between Runs anyone may
// write it; during one, only the goroutine of the worker that steps block
// b — which is also the only one that pushes directly into b's components.
func (e *Executor) WakeSlot(b, i int) *Tick { return &e.blocks[b].wake[i] }

// WakeAll marks every component due now, for a caller that may have
// changed component state between Runs.
//
//stashsim:phase serial
func (e *Executor) WakeAll() {
	for b := range e.blocks {
		clear(e.blocks[b].wake)
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
	workers := len(e.first) - 1
	if prof != nil && prof.Workers() != workers {
		panic(fmt.Sprintf("sim: profiler sized for %d workers attached to a %d-worker executor; attach it after the worker count is final",
			prof.Workers(), workers))
	}
	if e.quit.Load() {
		panic("sim: Run on a closed executor")
	}
	if e.barrier != nil && !e.started {
		e.started = true
		e.workers.Add(workers)
		for w := 0; w < workers; w++ {
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
			e.barrier.Wait() // release the workers into [now, end)
			e.barrier.Wait() // every worker has stepped the span
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

// worker is the long-lived loop of one worker when there are several:
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

// span runs one worker through one epoch [start, end): deliver the previous
// epoch's cross-worker traffic, then take the worker's blocks one at a
// time, each through every cycle of the epoch, stepping the components that
// have something due (the wake table) with no synchronization. This is the
// one stepping loop — the phasecheck closure and the zero-alloc
// steady-state contract both root here.
//
// Stepping block by block is conservative, not approximate. The epoch is no
// longer than the smallest latency between two blocks, so whatever a block
// sends another at cycle t of the epoch is due at t+latency >= end: the
// receiver needs it in no cycle of this epoch, whether it has already run
// them (the entry waits on its path for the next epoch) or has yet to (the
// entry sits on the path, not due, and Step ignores it). Channels have one
// producer, so each path still fills in due order. Across workers the same
// argument runs through the epoch slabs: nothing staged by a concurrent
// worker this epoch is due before the next one drains it.
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
	var nA, nB, allA, allB int64
	mine := e.blocks[e.first[lane]:e.first[lane+1]]
	for i := range mine {
		blk := &mine[i]
		a, b, wakeA, wakeB := blk.comps[:blk.a], blk.comps[blk.a:], blk.wake[:blk.a], blk.wake[blk.a:]
		for now := start; now < end; now++ {
			nA += stepDue(a, wakeA, now)
			tA := prof.clock()
			nB += stepDue(b, wakeB, now)
			dA += tA - tOut
			tOut = prof.clock()
			dB += tOut - tA
		}
		allA += int64(len(a))
		allB += int64(len(b))
	}
	prof.recSteps(lane, PhaseWorkA, nA, int64(end-start)*allA-nA)
	prof.recSteps(lane, PhaseWorkB, nB, int64(end-start)*allB-nB)
	return
}

// stepDue steps the components whose wake slot has come due, stores each
// one's answer for when to come back, and returns how many it stepped. A
// sender stepping later — in the cycle, or in a later block of the epoch —
// may lower a slot again, never raise it.
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
