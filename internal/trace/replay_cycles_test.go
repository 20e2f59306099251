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
// the per-cycle Step loop produced before components could sleep. Run
// drives the network through one RunUntil now; the count must not move by
// a cycle. A budget one cycle short must still fail, as it did.
func TestReplayRunExactCycles(t *testing.T) {
	want := map[string]int64{"AMG": 44481, "MultiGrid": 69136, "AMR": 38404, "MiniFE": 41738}
	for _, app := range tracegen.Apps() {
		cycles, ok := want[app.Name]
		if !ok {
			continue // BIGFFT and FillBoundary are the bandwidth-bound two
		}
		cfg := core.TinyConfig()
		cfg.Mode = core.StashE2E
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
		if !rp.Done() || int64(n.Now) != got {
			t.Errorf("%s: replay done=%v with the clock at %d after %d cycles", app.Name, rp.Done(), n.Now, got)
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
