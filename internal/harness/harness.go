// Package harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each experiment builds
// the networks it needs, runs the paper's workload, and emits the same
// rows/series the paper reports, as an aligned text table and as CSV.
package harness

import (
	"fmt"
	"strings"
	"sync"

	"stashsim/internal/core"
	"stashsim/internal/network"
	"stashsim/internal/sim"
	"stashsim/internal/stats"
	"stashsim/internal/tracegen"
)

// Options selects the scale and duration of the experiments.
type Options struct {
	// Base is the run description every design point starts from, the ten
	// flags cmd/figures shares with cmd/stashsim: the preset ("tiny",
	// "small", or "paper", the 3080-node configuration of Section V), the
	// seed, the invariant checker, a fault plan and stash parity for every
	// network, the snapshot prefixes. An experiment sets what it sweeps —
	// mode, capacity, workload, windows — on its own copy (see point).
	Base Spec
	// Quick shortens the sweeps and their windows (the tests, a smoke run).
	Quick bool
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
	// Workers bounds the sweep-level worker pool that independent design
	// points (one network, config, RNG and collector each) fan out over;
	// 0 means GOMAXPROCS. Results are identical for any value: every
	// point's output lands in an index-addressed slot and tables are
	// assembled in index order (see forEachPoint).
	Workers int

	// ExecProfiler, when non-nil, is attached to every experiment network
	// (the -profile-exec flag of cmd/figures). Experiment networks run
	// their cycles serially — the parallelism above is sweep-level — so a
	// single one-lane profiler aggregates phase timings across every
	// design point; its recording is atomic, safe for concurrent points.
	ExecProfiler *sim.ExecProfiler

	// logMu serializes Log calls from concurrent design points.
	logMu sync.Mutex
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.logMu.Lock()
		defer o.logMu.Unlock()
		o.Log(format, args...)
	}
}

// Experiment is one entry of the evaluation: its -exp name and a grid for
// sweep to run or, for what measures another way, a point count and a run.
type Experiment struct {
	Name   string
	Alias  string // another -exp name that selects it: fig8 comes out of the fig7 runs
	grid   func(o *Options) *grid
	points int
	run    func(o *Options) ([]Output, error)
}

// Experiments is the only list of what the evaluation is — the paper's
// Tables I-II and Figures 5-9 and the two extensions — in the order
// `-exp all` runs and prints it.
var Experiments = []*Experiment{
	{Name: "table1", run: table1},
	{Name: "table2", run: table2},
	{Name: "fig5", grid: fig5},
	{Name: "fig6", points: len(tracegen.Apps()) * len(e2eVariants), run: fig6},
	{Name: "fig7", Alias: "fig8", points: len(congVariants) + 1, run: fig7},
	{Name: "ablations", grid: ablations},
	{Name: "fig9", grid: fig9},
	{Name: "faults", grid: faults},
}

// Names lists every name -exp accepts besides "all".
func Names() (names []string) {
	for _, e := range Experiments {
		names = append(names, e.Name)
		if e.Alias != "" {
			names = append(names, e.Alias)
		}
	}
	return names
}

// Plan is what an experiment will run: Points independent simulations (0:
// the tables are computed), each taken through Spec.Warm and Spec.Run for
// Warmup + Cycles cycles — or for none, and then not checkpointable: fig6
// replays until its trace completes, fig7 probes between time bins.
type Plan struct {
	Points         int
	Warmup, Cycles int64
}

// Plan reads what the experiment will run, without building a network.
func (e *Experiment) Plan(o *Options) Plan {
	if e.grid == nil {
		return Plan{Points: e.points}
	}
	g := e.grid(o)
	return Plan{len(g.rows) * len(g.variants), g.warm, g.meas}
}

// End is where every point's window ends: -checkpoint may name [0, End).
func (p Plan) End() int64 { return p.Warmup + p.Cycles }

func (p Plan) String() string {
	if p.End() == 0 {
		return fmt.Sprintf("%d points, not checkpointable", p.Points)
	}
	return fmt.Sprintf("%d points × %d cycles", p.Points, p.End())
}

// Output is one table of an experiment, which cmd/figures prints under
// Title (if it has one), writes as File.csv and sketches as Plot says.
type Output struct {
	Title, File string
	Table       *stats.Table
	Plot        *Plot
}

// Plot describes the sketch of a table: the first column against the
// columns Y as a line chart or, with Bars, as the label of a row's bars.
type Plot struct {
	Title, XLabel, YLabel string
	Y                     []int
	Bars                  bool
}

// Run logs the experiment's plan and runs it.
func (e *Experiment) Run(o *Options) ([]Output, error) {
	o.logf("%s: %v", e.Name, e.Plan(o))
	if e.grid != nil {
		return o.sweep(e.Name, e.grid(o))
	}
	return e.run(o)
}

// usToCycles converts microseconds to internal cycles (1.3 cycles/ns).
func usToCycles(us float64) int64 { return int64(us * 1300) }

// cyclesToUS converts internal cycles to microseconds.
func cyclesToUS(c int64) float64 { return float64(c) / 1300 }

// scaleDur shortens durations under Quick.
func (o *Options) scaleDur(cycles int64) int64 {
	if o.Quick {
		return cycles / 5
	}
	return cycles
}

// point derives design point i of experiment exp from the base spec: the
// variant's mode, stash capacity and ECN; parity only on the e2e networks
// it applies to; the recovery timers on under any fault plan, so that
// dropped packets still deliver in every mode; and the point's own
// snapshot files, <prefix>.<experiment>.<point> — points are independent
// simulations, so the names depend on the experiment and the index, never
// on sweep scheduling. Tables are byte-identical with or without snapshots.
func (o *Options) point(exp string, i int, v variant) Spec {
	sp := o.Base
	sp.Mode, sp.CapFrac, sp.ECN = v.mode.String(), v.capFrac, v.ecn
	if v.mode != core.StashE2E {
		sp.StashParity = 0
	}
	if plan, _ := sp.FaultPlan(); plan != nil { // a bad plan is Config's to report
		sp.Retrans = true
	}
	if sp.CheckpointPath != "" {
		sp.CheckpointPath = fmt.Sprintf("%s.%s.%03d", sp.CheckpointPath, exp, i)
	}
	if sp.RestorePath != "" {
		sp.RestorePath = fmt.Sprintf("%s.%s.%03d", sp.RestorePath, exp, i)
	}
	return sp
}

// network builds a design point's network from its spec, after mutate, when
// non-nil, has edited the configuration (the ablations).
func (o *Options) network(sp *Spec, mutate func(*core.Config)) (*network.Network, error) {
	cfg, err := sp.Config()
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		mutate(cfg)
	}
	n, err := sp.New(cfg)
	if err != nil {
		return nil, err
	}
	if o.ExecProfiler != nil {
		err = n.SetExecProfiler(o.ExecProfiler)
	}
	return n, err
}

// variant labels one network configuration in an experiment.
type variant struct {
	name    string
	mode    core.StashMode
	capFrac float64
	ecn     bool
}

// e2eVariants are the four networks of Figures 5 and 6.
var e2eVariants = []variant{
	{name: "Baseline", mode: core.StashOff, capFrac: 1.0},
	{name: "Stash 100% Cap.", mode: core.StashE2E, capFrac: 1.0},
	{name: "Stash 50% Cap.", mode: core.StashE2E, capFrac: 0.5},
	{name: "Stash 25% Cap.", mode: core.StashE2E, capFrac: 0.25},
}

// congVariants are the three ECN networks of Figures 7-9.
var congVariants = []variant{
	{name: "Baseline ECN", mode: core.StashOff, capFrac: 1.0, ecn: true},
	{name: "Stash 100% Cap.", mode: core.StashCongestion, capFrac: 1.0, ecn: true},
	{name: "Stash 50% Cap.", mode: core.StashCongestion, capFrac: 0.5, ecn: true},
}

// grid declares a rows x variants sweep: what differs between experiments
// whose every (row, variant) pair is an independent design point.
type grid struct {
	rows       []string // the swept values, as the tables' first column prints them
	variants   []variant
	warm, meas int64 // every point's Warmup and Cycles
	tables     []gridTable
	// point sets what is swept on the spec of the point at (row, variant) and
	// returns network's mutate (nil but for the ablations), wire installs
	// traffic, cells reads results: the tables' cols, in order.
	point func(sp *Spec, row, vi int) func(*core.Config)
	wire  func(sp *Spec, n *network.Network)
	cells func(n *network.Network, s *Summary) []string
}

// gridTable is one output of a grid: corner heads the row labels, and each
// variant has one column per entry of cols, named <variant><col>.
type gridTable struct {
	Output
	corner string
	cols   []string
}

// uniformWire installs Spec.Wire's traffic from the experiment's own seed.
func uniformWire(seed uint64) func(*Spec, *network.Network) {
	return func(sp *Spec, n *network.Network) { sp.Wire(n, sim.NewRNG(sp.Seed+seed)) }
}

// labels formats a sweep's values as its tables' first column.
func labels[T any](format string, values []T) (rows []string) {
	for _, v := range values {
		rows = append(rows, fmt.Sprintf(format, v))
	}
	return rows
}

// sweep is the one way a grid point runs: built from its own spec and taken
// through Spec.Warm and Spec.Run, so that -checkpoint anywhere in the
// warm-up or the measured window snapshots every point and -restore resumes
// each. The tables are assembled in index order afterwards.
func (o *Options) sweep(exp string, g *grid) ([]Output, error) {
	nv := len(g.variants)
	cells := make([][]string, len(g.rows)*nv)
	err := o.forEachPoint(len(cells), func(i int) error {
		row, v := i/nv, g.variants[i%nv]
		sp := o.point(exp, i, v)
		sp.Warmup, sp.Cycles = g.warm, g.meas
		n, err := o.network(&sp, g.point(&sp, row, i%nv))
		if err != nil {
			return err
		}
		g.wire(&sp, n)
		if err := sp.Warm(n); err != nil {
			return err
		}
		s, err := sp.Run(n)
		if err != nil {
			return fmt.Errorf("%s %s %s: %w", exp, g.rows[row], v.name, err)
		}
		cells[i] = g.cells(n, s)
		o.logf("%s %s %s: %s", exp, g.rows[row], v.name, strings.Join(cells[i], " "))
		return nil
	})
	if err != nil {
		return nil, err
	}
	outs := make([]Output, len(g.tables))
	first := 0 // of a point's cells, the first that belongs to this table
	for ti, gt := range g.tables {
		t := &stats.Table{Header: []string{gt.corner}}
		for _, v := range g.variants {
			for _, col := range gt.cols {
				t.Header = append(t.Header, v.name+col)
			}
		}
		for r, label := range g.rows {
			row := []string{label}
			for vi := range g.variants {
				row = append(row, cells[r*nv+vi][first:first+len(gt.cols)]...)
			}
			t.AddRow(row...)
		}
		first += len(gt.cols)
		outs[ti] = gt.Output
		outs[ti].Table = t
	}
	return outs, nil
}

// fmtF formats a float with the given precision.
func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
