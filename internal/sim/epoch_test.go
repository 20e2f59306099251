package sim

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// epochDrainRec records DrainEpoch invocations for one partition.
type epochDrainRec struct {
	epochs []int64
}

func (d *epochDrainRec) DrainEpoch(epoch int64) { d.epochs = append(d.epochs, epoch) }

// newEpochExecutor builds a 2-partition, lookahead-7 executor over
// countSteppers with per-partition drain recorders.
func newEpochExecutor(perPart int) (*Executor, [][]*countStepper, []*epochDrainRec) {
	cs := make([][]*countStepper, 2)
	parts := make([][]Stepper, 2)
	for p := range parts {
		for i := 0; i < perPart; i++ {
			c := &countStepper{}
			cs[p] = append(cs[p], c)
			parts[p] = append(parts[p], c)
		}
	}
	drains := []*epochDrainRec{{}, {}}
	e := NewPartitionedExecutor(parts, []int{1, 1}, len(parts), 7, []EpochDrainer{drains[0], drains[1]})
	return e, cs, drains
}

// every10 names every multiple of 10.
func every10(from Tick) Tick { return NextMultiple(from, 10) }

// everyCycle is the BeforeEpoch that cuts after every cycle: the per-cycle
// barrier as a degenerate epoch schedule.
func everyCycle(now Tick) Tick { return now + 1 }

// TestEpochExecutorStepsEveryCycle verifies the free-running epoch loop
// preserves the fundamental contract: every component steps exactly once
// per cycle, in cycle order, even though barriers only happen at epoch
// boundaries.
func TestEpochExecutorStepsEveryCycle(t *testing.T) {
	e, cs, recs := newEpochExecutor(3)
	e.Run(0, 40)
	e.Run(40, 53)
	e.Close()
	for p := range cs {
		for i, c := range cs[p] {
			if len(c.steps) != 53 {
				t.Fatalf("partition %d component %d stepped %d cycles, want 53", p, i, len(c.steps))
			}
			for j, s := range c.steps {
				if s != Tick(j) {
					t.Fatalf("partition %d component %d step %d saw tick %d", p, i, j, s)
				}
			}
		}
	}
	// With no serial events, 53 cycles at lookahead 7 is ceil(40/7) +
	// ceil(13/7) = 6+2 = 8 epochs; each partition drains once per epoch
	// with a strictly incrementing epoch counter.
	for p, r := range recs {
		if len(r.epochs) != 8 {
			t.Fatalf("partition %d drained %d epochs, want 8", p, len(r.epochs))
		}
		for i, ep := range r.epochs {
			if ep != int64(i+1) {
				t.Fatalf("partition %d drain %d saw epoch %d, want %d", p, i, ep, i+1)
			}
		}
	}
}

// TestEpochExecutorSerialEventClamping pins the cut contract for both
// kinds of serial work. Observed cycles (every multiple of 10) end an
// epoch: AfterEpoch runs with the frontier right after each, and no epoch
// carries one anywhere but last. Action cycles (33 and 34) start one:
// BeforeEpoch runs with exactly that cycle. In between, epochs run the
// full lookahead of 7, and nothing costs a second barrier round.
func TestEpochExecutorSerialEventClamping(t *testing.T) {
	e, _, _ := newEpochExecutor(2)
	actions := []Tick{33, 34}
	var starts, frontier []Tick
	e.BeforeEpoch = func(now Tick) Tick {
		starts = append(starts, now)
		cut := every10(now) + 1
		for _, a := range actions {
			if a > now {
				cut = min(cut, a)
			}
		}
		return cut
	}
	e.AfterEpoch = func(next Tick) { frontier = append(frontier, next) }
	e.Run(0, 50)
	e.Close()

	want := []Tick{1, 8, 11, 18, 21, 28, 31, 33, 34, 41, 48, 50}
	if len(frontier) != len(want) {
		t.Fatalf("epochs ended at %v, want %v", frontier, want)
	}
	for i, w := range want {
		if frontier[i] != w {
			t.Fatalf("epochs ended at %v, want %v", frontier, want)
		}
		// Each epoch starts where the last one ended: the hooks alternate.
		if i > 0 && starts[i] != want[i-1] {
			t.Fatalf("epoch %d started at %d, want %d", i, starts[i], want[i-1])
		}
	}
}

// TestEpochExecutorHookOrdering pins the barrier contract with sparse
// cuts: BeforeEpoch sees every cycle before its own complete and none of
// its own begun, AfterEpoch sees every cycle before the frontier complete,
// with work free-running in between.
func TestEpochExecutorHookOrdering(t *testing.T) {
	const comps, cycles = 8, 60
	var total atomic.Int64
	parts := make([][]Stepper, 2)
	for i := 0; i < comps; i++ {
		parts[i%2] = append(parts[i%2], &tallyStepper{total: &total})
	}
	e := NewPartitionedExecutor(parts, []int{0, 0}, len(parts), 7, nil)
	var bad atomic.Int64
	e.BeforeEpoch = func(now Tick) Tick {
		if total.Load() != int64(now)*comps {
			bad.Add(1)
		}
		return every10(now) + 1
	}
	e.AfterEpoch = func(next Tick) {
		if total.Load() != int64(next)*comps {
			bad.Add(1)
		}
	}
	e.Run(0, cycles)
	e.Close()
	if bad.Load() != 0 {
		t.Fatalf("%d hook-ordering violations", bad.Load())
	}
	if total.Load() != comps*cycles {
		t.Fatalf("%d total steps, want %d", total.Load(), comps*cycles)
	}
}

// TestEpochExecutorRunAfterClose: Close is terminal, and the run carries
// on under a fresh executor over the same components and drainers (what
// the network's repartition does): every component still steps every
// cycle and both executors drain.
func TestEpochExecutorRunAfterClose(t *testing.T) {
	e, cs, recs := newEpochExecutor(2)
	e.Run(0, 20)
	e.Close()
	parts := make([][]Stepper, len(cs))
	for p := range cs {
		for _, c := range cs[p] {
			parts[p] = append(parts[p], c)
		}
	}
	e = NewPartitionedExecutor(parts, []int{1, 1}, len(parts), 7, []EpochDrainer{recs[0], recs[1]})
	e.Run(20, 30)
	e.Close()
	for p := range cs {
		for i, c := range cs[p] {
			if len(c.steps) != 30 {
				t.Fatalf("partition %d component %d stepped %d cycles, want 30", p, i, len(c.steps))
			}
		}
		// ceil(20/7) + ceil(10/7) epochs, drained on both sides of Close.
		if got := len(recs[p].epochs); got != 5 {
			t.Fatalf("partition %d drained %d epochs, want 5", p, got)
		}
	}
}

func mustPanicSim(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	f()
}

// TestPartitionedExecutorValidation pins the constructor's argument
// contract.
func TestPartitionedExecutorValidation(t *testing.T) {
	part := func() []Stepper { return []Stepper{&countStepper{}, &countStepper{}} }
	two := func() [][]Stepper { return [][]Stepper{part(), part()} }
	mustPanicSim(t, "no partitions", func() {
		NewPartitionedExecutor(nil, nil, 1, 7, nil)
	})
	mustPanicSim(t, "aCounts length mismatch", func() {
		NewPartitionedExecutor(two(), []int{1}, 2, 7, nil)
	})
	mustPanicSim(t, "aCount out of range", func() {
		NewPartitionedExecutor(two(), []int{1, 3}, 2, 7, nil)
	})
	mustPanicSim(t, "lookahead < 1", func() {
		NewPartitionedExecutor(two(), []int{1, 1}, 2, 0, nil)
	})
	mustPanicSim(t, "drains length mismatch", func() {
		NewPartitionedExecutor(two(), []int{1, 1}, 2, 7, []EpochDrainer{&epochDrainRec{}})
	})
	mustPanicSim(t, "no workers", func() {
		NewPartitionedExecutor(two(), []int{1, 1}, 0, 7, nil)
	})
	mustPanicSim(t, "more workers than blocks", func() {
		NewPartitionedExecutor(two(), []int{1, 1}, 3, 7, nil)
	})
	// One worker is the serial case and needs no drains, however many blocks.
	NewPartitionedExecutor([][]Stepper{part()}, []int{1}, 1, 7, nil).Run(0, 10)
	NewPartitionedExecutor(two(), []int{1, 1}, 1, 7, nil).Run(0, 10)
}

// blockLog records the order in which the executor steps (block, cycle)
// pairs; poke, when set, is a slot in another block that the component
// lowers the way a link push does, latency cycles ahead.
type blockLog struct {
	block   int
	log     *[]string
	poke    *Tick
	latency Tick
}

func (s *blockLog) Step(now Tick) {
	*s.log = append(*s.log, fmt.Sprintf("b%d@%d", s.block, now))
	if s.poke != nil && now+s.latency < *s.poke {
		*s.poke = now + s.latency
	}
}
func (s *blockLog) NextWake(now Tick) Tick { return now + 1 }

// TestBlocksRunEpochsBackToBack pins the loop order on one worker: each
// block runs every cycle of the epoch before the next block starts, an
// epoch is the lookahead or whatever is left of the Run, and a one-cycle
// epoch is the cycle-by-cycle walk over every block.
func TestBlocksRunEpochsBackToBack(t *testing.T) {
	var log []string
	blocks := [][]Stepper{{&blockLog{block: 0, log: &log}}, {&blockLog{block: 1, log: &log}}, {&blockLog{block: 2, log: &log}}}
	e := NewPartitionedExecutor(blocks, []int{0, 0, 0}, 1, 2, nil)
	e.Run(0, 3)
	if got, want := fmt.Sprint(log), "[b0@0 b0@1 b1@0 b1@1 b2@0 b2@1 b0@2 b1@2 b2@2]"; got != want {
		t.Fatalf("step order %v, want %v", got, want)
	}
	log = nil
	e.BeforeEpoch = func(now Tick) Tick { return now + 1 }
	e.Run(3, 5)
	if got, want := fmt.Sprint(log), "[b0@3 b1@3 b2@3 b0@4 b1@4 b2@4]"; got != want {
		t.Fatalf("one-cycle epochs stepped %v, want %v", got, want)
	}
}

// TestWakeAcrossBlocks: a component asleep in one block is woken by a
// store from another block of the same worker, whichever of the two ran
// the epoch first — the store names a cycle at or past the epoch's end, so
// an earlier block has not run past it and a later one has yet to get
// there.
func TestWakeAcrossBlocks(t *testing.T) {
	const latency = 4 // == lookahead: the shortest channel between blocks
	for _, sleeperFirst := range []bool{true, false} {
		sleeper := &napStepper{nap: Never - 1000}
		var log []string
		poker := &blockLog{log: &log, latency: latency}
		blocks := [][]Stepper{{sleeper}, {poker}}
		if !sleeperFirst {
			blocks = [][]Stepper{{poker}, {sleeper}}
		}
		e := NewPartitionedExecutor(blocks, []int{0, 0}, 1, latency, nil)
		e.Run(0, 1) // the sleeper steps once and goes to sleep for good
		sb := 0
		if !sleeperFirst {
			sb = 1
		}
		poker.poke = e.WakeSlot(sb, 0)
		e.Run(1, 9) // epochs [1,5) [5,9): pokes at cycle 1 name cycle 5
		if got := fmt.Sprint(sleeper.steps); got != "[0 5]" {
			t.Fatalf("sleeperFirst=%v: sleeper stepped at %v, want [0 5]", sleeperFirst, got)
		}
	}
}

// TestWorkerOfDealsContiguousRuns: every worker gets a non-empty
// contiguous run of blocks, in order, sizes within one of each other.
func TestWorkerOfDealsContiguousRuns(t *testing.T) {
	for blocks := 1; blocks <= 20; blocks++ {
		for workers := 1; workers <= blocks; workers++ {
			count := make([]int, workers)
			prev := 0
			for b := 0; b < blocks; b++ {
				w := WorkerOf(b, blocks, workers)
				if w < prev || w > prev+1 || w >= workers {
					t.Fatalf("%d blocks on %d workers: block %d went to worker %d after %d", blocks, workers, b, w, prev)
				}
				count[w]++
				prev = w
			}
			for w, c := range count {
				if c < blocks/workers || c > blocks/workers+1 {
					t.Fatalf("%d blocks on %d workers: worker %d got %d", blocks, workers, w, c)
				}
			}
		}
	}
}
