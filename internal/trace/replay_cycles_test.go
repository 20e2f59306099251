package trace_test

import (
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/network"
	"stashsim/internal/trace"
	"stashsim/internal/tracegen"
)

// TestReplayRunExactCycles pins the simulated runtime Replay.Run returns
// for the four latency-bound Figure 6 applications — the replays in which
// nearly every component sleeps nearly all the time — against the values
// the per-cycle Step loop produced before components could sleep, and for
// bandwidth-bound BIGFFT at half the stash capacity, where the message
// completion that makes the replay Done is not the latest in simulated
// time (the blocks of the network step one after another through an
// epoch). Run drives the network through one RunUntil that checks for
// completion once an epoch and reads the count off the latest completion;
// the count must not move by a cycle, and the clock stands less than an
// epoch past it. A budget one cycle short must still fail, as it did.
func TestReplayRunExactCycles(t *testing.T) {
	want := map[string]struct {
		capFrac float64
		cycles  int64
	}{
		"AMG": {1, 44481}, "MultiGrid": {1, 69136}, "AMR": {1, 38404}, "MiniFE": {1, 41738},
		"BIGFFT": {0.5, 38088},
	}
	for _, app := range tracegen.Apps() {
		w, ok := want[app.Name]
		if !ok {
			continue // FillBoundary, the other bandwidth-bound one, runs ten times as long
		}
		cycles := w.cycles
		cfg := core.TinyConfig()
		cfg.Mode = core.StashE2E
		cfg.StashCapFrac = w.capFrac
		n, err := network.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := app.Generate(tracegen.Scale{Ranks: cfg.Topo.NumEndpoints(), Bytes: 1, Iters: 0.25})
		rp, err := trace.NewReplay(tr, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rp.Run(3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if got != cycles {
			t.Errorf("%s: Replay.Run took %d simulated cycles, the per-cycle loop took %d", app.Name, got, cycles)
		}
		if past := int64(n.Now) - got; !rp.Done() || past < 0 || past >= n.EpochLookahead() {
			t.Errorf("%s: replay done=%v with the clock at %d after %d cycles (epoch %d)",
				app.Name, rp.Done(), n.Now, got, n.EpochLookahead())
		}
		if app.Name != "AMR" {
			continue
		}
		n2, err := network.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		short, err := trace.NewReplay(tr, n2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := short.Run(cycles - 1); err == nil {
			t.Errorf("%s: a budget of %d cycles completed a %d-cycle replay", app.Name, cycles-1, cycles)
		}
	}
}
