package harness

import (
	"fmt"
	"os"

	"stashsim/internal/core"
	"stashsim/internal/network"
	"stashsim/internal/stats"
	"stashsim/internal/trace"
	"stashsim/internal/tracegen"
)

// fig6 reproduces Figure 6: execution time of the six DesignForward MPI
// application traces, on the baseline and the three end-to-end-reliability
// stash networks, normalized to the baseline. Ranks map contiguously onto
// endpoints, one rank per endpoint, with no computation time.
//
// Expected shape (paper): the low-load traces (AMR, MiniFE, MultiGrid,
// AMG) are within noise of 1.0 on every stash network; the bandwidth-bound
// traces (BIGFFT, FillBoundary) degrade visibly only at 25% capacity; some
// traces run slightly *faster* with stashing because the capacity limit
// self-paces endpoints and softens congestion.
func fig6(o *Options) ([]Output, error) {
	t := &stats.Table{Header: []string{"Trace", "Ranks"}}
	for _, v := range e2eVariants {
		t.Header = append(t.Header, v.name)
	}

	scale := tracegen.DefaultScale()
	base, err := core.PresetConfig(o.Base.Preset)
	if err != nil {
		return nil, err
	}
	scale.Ranks = base.Topo.NumEndpoints()
	if o.Quick {
		// Benchmark mode: smaller grids and fewer iterations.
		if scale.Ranks > 64 {
			scale.Ranks = 64
		}
		scale.Iters = 0.4
	}

	budget := o.scaleDur(3_000_000)
	apps := tracegen.Apps()
	variants := e2eVariants
	// Generate each trace once up front; replays share it read-only (every
	// Replay owns its bookkeeping maps), so all (app, variant) design
	// points are independent and fan out over the sweep pool. Row i of the
	// table normalizes against its own variant-0 run, which is why results
	// are collected by index and assembled only after every point is done.
	traces := make([]*trace.Trace, len(apps))
	for ai, app := range apps {
		traces[ai] = app.Generate(scale)
		if err := traces[ai].Validate(); err != nil {
			return nil, err
		}
	}
	cycles := make([]int64, len(apps)*len(variants))
	err = o.forEachPoint(len(cycles), func(i int) error {
		app := apps[i/len(variants)]
		v := variants[i%len(variants)]
		sp := o.point("fig6", i, v)
		n, err := o.network(&sp, nil)
		if err != nil {
			return err
		}
		// A deadlocked replay dumps its non-idle switches instead of
		// spinning silently until the budget runs out.
		n.Observe(network.NewWatchdog(n, budget/4, os.Stderr, nil))
		rp, err := trace.NewReplay(traces[i/len(variants)], n, 0)
		if err != nil {
			return err
		}
		c, err := rp.Run(budget)
		if err != nil {
			return err
		}
		cycles[i] = c
		o.logf("fig6 %s %s: %d cycles (%.2f us)", app.Name, v.name, c, cyclesToUS(c))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ai, app := range apps {
		row := []string{app.Name, fmt.Sprint(traces[ai].Ranks)}
		baseCycles := cycles[ai*len(variants)]
		for vi := range variants {
			row = append(row, fmtF(float64(cycles[ai*len(variants)+vi])/float64(baseCycles), 3))
		}
		t.AddRow(row...)
	}
	return []Output{{Title: "Figure 6: trace runtime normalized to baseline", File: "fig6_traces", Table: t,
		Plot: &Plot{Title: "Fig 6 (shape)", Y: []int{2, 3, 4, 5}, Bars: true}}}, nil
}
