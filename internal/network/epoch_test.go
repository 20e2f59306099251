package network

import (
	"sync"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/sim"
)

// The executor profiler's attach contracts. The run-it-two-ways tests of the
// epoch executor are rows of the differential table (equiv_test.go).

// TestSetExecProfilerNilDetaches pins the nil contract: nil detaches
// cleanly (no panic, profiling off) instead of dereferencing p.
func TestSetExecProfilerNilDetaches(t *testing.T) {
	n := loadedNet(t, "tiny", "e2e")
	n.EnableExecProfile(0)
	if err := n.SetExecProfiler(nil); err != nil {
		t.Fatalf("SetExecProfiler(nil): %v", err)
	}
	if n.Profiler != nil {
		t.Fatal("nil attach left a profiler installed")
	}
	n.Run(100) // must not profile or panic
	if n.Now != 100 {
		t.Fatalf("run advanced %d cycles, want 100", n.Now)
	}
}

// TestSetExecProfilerMismatchError pins the loud-failure contract: a
// profiler sized for the wrong worker count is rejected at attach time
// (it used to be silently dropped by Executor.Run, yielding an unprofiled
// parallel run with no diagnostic).
func TestSetExecProfilerMismatchError(t *testing.T) {
	n := loadedNet(t, "tiny", "e2e")
	n.SetWorkers(4)
	defer n.Close()
	if err := n.SetExecProfiler(sim.NewExecProfiler(2, 0)); err == nil {
		t.Fatal("mismatched profiler accepted silently")
	}
	if err := n.SetExecProfiler(sim.NewExecProfiler(4, 0)); err != nil {
		t.Fatalf("matched profiler rejected: %v", err)
	}
}

// TestEnableExecProfileBeforeSetWorkers pins the resize contract for the
// other half of the satellite: EnableExecProfile before SetWorkers used to
// leave a 1-lane profiler attached to a 4-worker run, which Executor.Run
// silently dropped. Now SetWorkers resizes the network-owned profiler and
// the parallel run is actually profiled.
func TestEnableExecProfileBeforeSetWorkers(t *testing.T) {
	n := loadedNet(t, "tiny", "e2e")
	n.EnableExecProfile(0)
	n.SetWorkers(4)
	defer n.Close()
	if w := n.Profiler.Workers(); w != 4 {
		t.Fatalf("profiler lanes %d after SetWorkers(4), want 4", w)
	}
	n.Run(500)
	rep := n.Profiler.Report()
	if rep.Attribution.Cycles != 500 {
		t.Fatalf("profiled %d cycles, want 500", rep.Attribution.Cycles)
	}
	if rep.Attribution.Epochs == 0 || rep.Attribution.CyclesPerSync <= 1 {
		t.Fatalf("epoch run not profiled as epochs: %+v", rep)
	}
}

// TestEpochProfilerSyncAttribution is the acceptance check at test scale:
// with no serial observers attached, a tiny epoch run must synchronize at
// most once per full lookahead (65 cycles), i.e. CyclesPerSync == 65.
func TestEpochProfilerSyncAttribution(t *testing.T) {
	n := loadedNet(t, "tiny", "e2e")
	n.SetWorkers(4)
	defer n.Close()
	n.EnableExecProfile(0)
	n.Run(6500)
	rep := n.Profiler.Report()
	if rep.Attribution.Epochs != 100 {
		t.Fatalf("6500 cycles at lookahead 65 took %d epochs, want 100", rep.Attribution.Epochs)
	}
	if rep.Attribution.CyclesPerSync != 65 {
		t.Fatalf("cycles/sync = %v, want 65", rep.Attribution.CyclesPerSync)
	}
}

// TestSharedProfilerAttachRace: the figures harness attaches one profiler
// to every network of a sweep, and sweep points run at once. Attaching a
// profiler the caller owns writes nothing to it, so two networks that
// attach one and run at the same time are clean under -race.
func TestSharedProfilerAttachRace(t *testing.T) {
	p := sim.NewExecProfiler(1, 0)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := New(core.TinyConfig())
			if err == nil {
				err = n.SetExecProfiler(p)
			}
			if err != nil {
				t.Error(err)
				return
			}
			n.Run(10)
		}()
	}
	wg.Wait()
	if got := p.Report().Attribution.Cycles; got != 20 {
		t.Fatalf("the shared profiler saw %d cycles, want 20", got)
	}
}
