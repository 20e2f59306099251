package sim

import (
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("divergence at step %d", i)
		}
	}
}

func TestRNGSeedSeparation(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between distinct seeds", same)
	}
}

func TestRNGDeriveIndependence(t *testing.T) {
	parent := NewRNG(42)
	c1 := parent.Derive(1)
	c2 := parent.Derive(2)
	c1again := parent.Derive(1)
	if c1.Uint64() != c1again.Uint64() {
		t.Fatal("Derive is not deterministic")
	}
	if c1.state == c2.state {
		t.Fatal("distinct streams share state")
	}
}

// TestRNGSkip: Skip(k) leaves the stream where k draws would, for every
// kind of draw, and Skip(-k) undoes it.
func TestRNGSkip(t *testing.T) {
	for _, k := range []int64{0, 1, 2, 17, 1000} {
		drawn, skipped := NewRNG(21), NewRNG(21)
		for i := int64(0); i < k; i++ {
			switch i % 4 {
			case 0:
				drawn.Uint64()
			case 1:
				drawn.Intn(7)
			case 2:
				drawn.Bernoulli(0.5)
			default:
				drawn.Float64()
			}
		}
		skipped.Skip(k)
		if drawn.State() != skipped.State() || drawn.Uint64() != skipped.Uint64() {
			t.Fatalf("Skip(%d) left the stream elsewhere than %d draws", k, k)
		}
		skipped.Skip(-k - 1)
		if fresh := NewRNG(21); skipped.State() != fresh.State() {
			t.Fatalf("Skip(%d) did not rewind %d draws", -k-1, k+1)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw)%100 + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(11)
	const n, samples = 10, 100000
	counts := make([]int, n)
	for i := 0; i < samples; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		frac := float64(c) / samples
		if frac < 0.08 || frac > 0.12 {
			t.Fatalf("bucket %d has fraction %.3f, want ~0.1", i, frac)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := NewRNG(9)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < p-0.01 || got > p+0.01 {
		t.Fatalf("Bernoulli(%.1f) frequency %.3f", p, got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestBarrierSynchronizes(t *testing.T) {
	const workers, rounds = 4, 100
	b := NewBarrier(workers)
	var counter atomic.Int64
	done := make(chan bool)
	for w := 0; w < workers; w++ {
		go func() {
			for r := 0; r < rounds; r++ {
				counter.Add(1)
				b.Wait()
				// After the barrier, all workers must have counted
				// this round.
				if c := counter.Load(); c < int64((r+1)*workers) {
					t.Errorf("round %d: count %d", r, c)
				}
				b.Wait()
			}
			done <- true
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}

// alwaysAwake is the NextWake of a test component that never sleeps.
type alwaysAwake struct{}

func (alwaysAwake) NextWake(now Tick) Tick { return now + 1 }

type countStepper struct {
	alwaysAwake
	steps []Tick
}

func (c *countStepper) Step(now Tick) { c.steps = append(c.steps, now) }

// roundRobin deals steppers over n partitions with no phase-A split.
func roundRobin(steppers []Stepper, n int) ([][]Stepper, []int) {
	parts := make([][]Stepper, n)
	for i, c := range steppers {
		parts[i%n] = append(parts[i%n], c)
	}
	return parts, make([]int, n)
}

// TestExecutorSerial: one partition runs inline, stepping every component
// every cycle in order, with no serial events to clamp the epochs.
func TestExecutorSerial(t *testing.T) {
	cs := []*countStepper{{}, {}, {}}
	var steppers []Stepper
	for _, c := range cs {
		steppers = append(steppers, c)
	}
	parts, aCounts := roundRobin(steppers, 1)
	e := NewPartitionedExecutor(parts, aCounts, len(parts), 1<<40, nil)
	e.Run(0, 10)
	e.Run(10, 15)
	for _, c := range cs {
		if len(c.steps) != 15 {
			t.Fatalf("component stepped %d times, want 15", len(c.steps))
		}
		for i, s := range c.steps {
			if s != Tick(i) {
				t.Fatalf("step %d saw tick %d", i, s)
			}
		}
	}
}

type atomicStepper struct {
	alwaysAwake
	cur   *atomic.Int64
	fails atomic.Int64
}

func (a *atomicStepper) Step(now Tick) {
	if a.cur.Load() != int64(now) {
		a.fails.Add(1)
	}
}

type tallyStepper struct {
	alwaysAwake
	total *atomic.Int64
}

func (s *tallyStepper) Step(now Tick) { s.total.Add(1) }

// TestExecutorHookOrdering verifies the barrier contract with a cut after
// every cycle: BeforeEpoch runs strictly before any component step of its
// cycle and AfterEpoch strictly after all of them, inline and with workers.
func TestExecutorHookOrdering(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const comps, cycles = 8, 40
		var total atomic.Int64
		steppers := make([]Stepper, comps)
		for i := range steppers {
			steppers[i] = &tallyStepper{total: &total}
		}
		parts, aCounts := roundRobin(steppers, workers)
		e := NewPartitionedExecutor(parts, aCounts, len(parts), 7, nil)
		var bad, rounds atomic.Int64
		e.BeforeEpoch = func(now Tick) Tick {
			// Entering cycle `now`, exactly now*comps steps have happened.
			if total.Load() != int64(now)*comps {
				bad.Add(1)
			}
			return everyCycle(now)
		}
		e.AfterEpoch = func(next Tick) {
			// Leaving cycle next-1, its comps steps are all complete.
			if total.Load() != int64(next)*comps {
				bad.Add(1)
			}
			rounds.Add(1)
		}
		e.Run(0, cycles)
		e.Close()
		if bad.Load() != 0 {
			t.Fatalf("workers=%d: %d hook-ordering violations", workers, bad.Load())
		}
		if rounds.Load() != cycles {
			t.Fatalf("workers=%d: %d barrier rounds, want one per cycle (%d)", workers, rounds.Load(), cycles)
		}
		if total.Load() != comps*cycles {
			t.Fatalf("workers=%d: %d total steps, want %d", workers, total.Load(), comps*cycles)
		}
	}
}

// TestExecutorRejectsEmptyCut: a BeforeEpoch that cuts the epoch at or
// before its first cycle would spin the loop forever; Run panics instead.
func TestExecutorRejectsEmptyCut(t *testing.T) {
	e := NewPartitionedExecutor([][]Stepper{{&countStepper{}}}, []int{0}, 1, 7, nil)
	e.BeforeEpoch = func(now Tick) Tick { return now }
	mustPanicSim(t, "cut at now", func() { e.Run(0, 10) })
}

// TestExecutorRunAfterClose: Close is idempotent and terminal — a later
// Run panics instead of deadlocking on a barrier nobody else will reach.
func TestExecutorRunAfterClose(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var total atomic.Int64
		steppers := make([]Stepper, 6)
		for i := range steppers {
			steppers[i] = &tallyStepper{total: &total}
		}
		parts, aCounts := roundRobin(steppers, workers)
		e := NewPartitionedExecutor(parts, aCounts, len(parts), 7, nil)
		e.Run(0, 10)
		e.Close()
		e.Close() // idempotent
		mustPanicSim(t, "Run after Close", func() { e.Run(10, 20) })
		if got := total.Load(); got != 6*10 {
			t.Fatalf("workers=%d: %d steps, want %d", workers, got, 6*10)
		}
	}
}

func TestParallelFor(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 100} {
		const n = 57
		results := make([]int, n)
		ParallelFor(workers, n, func(i int) { results[i] = i * i })
		for i, v := range results {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d holds %d, want %d", workers, i, v, i*i)
			}
		}
	}
	// Degenerate sizes must not hang or panic.
	ParallelFor(4, 0, func(int) { t.Fatal("fn called for n=0") })
	ParallelFor(4, -3, func(int) { t.Fatal("fn called for n<0") })
}

func TestExecutorParallelCycleBoundary(t *testing.T) {
	// Every component must observe the same cycle value; the shared
	// atomic is advanced by a dedicated clock component stepped first in
	// partition 0... Instead, verify all components see `now` equal to
	// the loop cycle by having them check a shared value set serially
	// before Run of each single-cycle window.
	var cur atomic.Int64
	comps := make([]Stepper, 8)
	ss := make([]*atomicStepper, 8)
	for i := range comps {
		ss[i] = &atomicStepper{cur: &cur}
		comps[i] = ss[i]
	}
	parts, aCounts := roundRobin(comps, 4)
	e := NewPartitionedExecutor(parts, aCounts, len(parts), 7, nil)
	defer e.Close()
	for c := Tick(0); c < 50; c++ {
		cur.Store(int64(c))
		e.Run(c, c+1)
	}
	for i, s := range ss {
		if s.fails.Load() != 0 {
			t.Fatalf("component %d saw %d wrong cycles", i, s.fails.Load())
		}
	}
}

// napStepper sleeps `nap` cycles after every step.
type napStepper struct {
	nap   Tick
	steps []Tick
}

func (s *napStepper) Step(now Tick)          { s.steps = append(s.steps, now) }
func (s *napStepper) NextWake(now Tick) Tick { return now + s.nap }

// TestExecutorSleepWake pins the wake table: a component is stepped on the
// cycle it asked for and not before, a store into its WakeSlot brings that
// forward, WakeAll makes everything due, a fresh executor starts all
// awake, and the profiler counts the component-cycles stepped and slept
// through per work phase.
func TestExecutorSleepWake(t *testing.T) {
	for _, workers := range []int{1, 2} {
		a, b, never := &napStepper{nap: 4}, &napStepper{nap: 1}, &napStepper{nap: Never - 1000}
		parts := [][]Stepper{{a, never}, {b}}
		aCounts := []int{1, 0}
		if workers == 1 {
			parts, aCounts = [][]Stepper{{a, never, b}}, []int{1}
		}
		e := NewPartitionedExecutor(parts, aCounts, len(parts), 3, nil)
		e.Profiler = NewExecProfiler(workers, 0)
		e.Run(0, 10)
		if fmt.Sprint(a.steps) != "[0 4 8]" || len(b.steps) != 10 || fmt.Sprint(never.steps) != "[0]" {
			t.Fatalf("workers=%d: steps %v / %d / %v, want [0 4 8] / 10 / [0]", workers, a.steps, len(b.steps), never.steps)
		}
		*e.WakeSlot(0, 0) = 10 // input for a, due before its own answer (12)
		*e.WakeSlot(0, 1) = 11
		e.Run(10, 12)
		if fmt.Sprint(a.steps) != "[0 4 8 10]" || fmt.Sprint(never.steps) != "[0 11]" {
			t.Fatalf("workers=%d: after slot stores, steps %v / %v", workers, a.steps, never.steps)
		}
		e.WakeAll()
		e.Run(12, 13)
		if a.steps[len(a.steps)-1] != 12 || never.steps[len(never.steps)-1] != 12 {
			t.Fatalf("workers=%d: WakeAll did not make every component due: %v / %v", workers, a.steps, never.steps)
		}
		var stepped, skipped int64
		for _, lane := range e.Profiler.Report().Lanes {
			for _, ph := range lane.Phases {
				stepped += ph.Stepped
				skipped += ph.Skipped
			}
		}
		if want := int64(len(a.steps) + len(b.steps) + len(never.steps)); stepped != want || stepped+skipped != 3*13 {
			t.Fatalf("workers=%d: profiler counted %d stepped + %d skipped, want %d stepped of %d component-cycles",
				workers, stepped, skipped, want, 3*13)
		}
		e.Close()
	}
}

// TestWakeAllZeroesEverySlot: WakeAll leaves no slot of any block standing —
// whatever each held, on any worker count — so the cycle that follows steps
// every component. The network's public run entries are built on it, and
// through them the reference run its equivalence tests compare with.
func TestWakeAllZeroesEverySlot(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		sizes := []int{3, 1, 4}
		blocks := make([][]Stepper, len(sizes))
		var all []*napStepper
		for b, size := range sizes {
			for i := 0; i < size; i++ {
				c := &napStepper{nap: Tick(1 + 5*len(all))}
				if i == 0 {
					c.nap = Never - 1000
				}
				all = append(all, c)
				blocks[b] = append(blocks[b], c)
			}
		}
		e := NewPartitionedExecutor(blocks, []int{1, 0, 2}, workers, 4, nil)
		e.Run(0, 9)
		*e.WakeSlot(2, 3) = Never
		e.WakeAll()
		for b, size := range sizes {
			for i := 0; i < size; i++ {
				if w := *e.WakeSlot(b, i); w != 0 {
					t.Fatalf("workers=%d: slot %d of block %d reads %d after WakeAll, want 0", workers, i, b, w)
				}
			}
		}
		e.Run(9, 10)
		for i, c := range all {
			if c.steps[len(c.steps)-1] != 9 {
				t.Fatalf("workers=%d: component %d not stepped on the cycle after WakeAll: %v", workers, i, c.steps)
			}
		}
		e.Close()
	}
}
