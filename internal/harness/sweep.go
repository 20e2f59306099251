package harness

import (
	"fmt"
	"runtime"

	"stashsim/internal/sim"
)

// forEachPoint is the parallel sweep runner: it evaluates fn(i) for every
// design point i in [0, n) over the bounded worker pool (sim.ParallelFor)
// and returns the error of the lowest-indexed failed point, if any.
//
// The determinism contract: each point must be self-contained — build its
// own network, derive its own RNG stream from the config seed, record into
// its own collectors — and must publish results only into slots addressed
// by its own index (cells[i] = ...). Callers assemble tables strictly in
// index order after forEachPoint returns, never in completion order, so
// every table and CSV is byte-identical whether the sweep ran on one
// worker or sixteen. Progress logging may interleave; output must not.
//
// A panicking point (an invariant violation, say) is reported as that
// point's error instead of killing the process from a worker goroutine.
func (o *Options) forEachPoint(n int, fn func(i int) error) error {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	sim.ParallelFor(workers, n, func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("harness: design point %d panicked: %v", i, r)
			}
		}()
		errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
