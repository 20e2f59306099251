package network

import (
	"fmt"
	"slices"
	"testing"

	"stashsim/internal/sim"
)

// fakeObserver names an arbitrary list of cycles and records when it was
// called and whether the network stood exactly at the end of that cycle.
type fakeObserver struct {
	n        *Network
	schedule []int64 // ascending
	calls    []int64
	early    []int64 // calls that did not see cycles 0..now complete
}

func (f *fakeObserver) NextEventAt(from int64) int64 {
	for _, c := range f.schedule {
		if c >= from {
			return c
		}
	}
	return sim.Never
}

func (f *fakeObserver) AtBarrier(now int64) {
	f.calls = append(f.calls, now)
	if f.n.CyclesDone() != now+1 {
		f.early = append(f.early, now)
	}
}

// TestObserverScheduleExact is the Observer contract: an observer is
// called after exactly the cycles it names, once each, whatever the worker
// count and however the span is chunked into public run calls. The
// schedules are irregular on purpose — cycle 0, consecutive cycles, cycles
// on both sides of a run boundary (6|7 under Run(7), 199|200 under the two
// halves), a cycle past the 65-cycle lookahead from its predecessor — and
// two observers overlap on some cycles and not on others, so each must be
// called only for its own.
func TestObserverScheduleExact(t *testing.T) {
	const span = 400
	schedules := [][]int64{
		{0, 1, 6, 7, 64, 65, 130, 199, 200, 333, 399, span, span + 50},
		{1, 64, 100, 200, 201},
	}
	never := func() bool { return false }
	chunkings := []struct {
		name string
		run  func(n *Network)
	}{
		{"Run(400)", func(n *Network) { n.Run(span) }},
		{"Step", func(n *Network) {
			for i := 0; i < span; i++ {
				n.Step()
			}
		}},
		{"Run(7)", func(n *Network) {
			for n.Now+7 <= span {
				n.Run(7)
			}
			n.Run(span - int64(n.Now))
		}},
		{"Run(200)+RunUntil", func(n *Network) {
			n.Run(200)
			n.RunUntil(150, 13, never)
			n.RunUntil(50, 50, never)
		}},
	}
	for _, workers := range []int{1, 4} {
		for _, ch := range chunkings {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, ch.name), func(t *testing.T) {
				n := buildLoadedWith(t, 17, nil)
				n.SetWorkers(workers)
				defer n.Close()
				var fakes []*fakeObserver
				for _, s := range schedules {
					f := &fakeObserver{n: n, schedule: s}
					fakes = append(fakes, f)
					n.Observe(f)
				}
				ch.run(n)
				if n.Now != span {
					t.Fatalf("chunking ran %d cycles, want %d", n.Now, span)
				}
				for i, f := range fakes {
					want := slices.DeleteFunc(slices.Clone(f.schedule), func(c int64) bool { return c >= span })
					if !slices.Equal(f.calls, want) {
						t.Fatalf("observer %d called after cycles %v, named %v", i, f.calls, want)
					}
					if len(f.early) > 0 {
						t.Fatalf("observer %d called away from the end of cycles %v", i, f.early)
					}
				}
			})
		}
	}
}
