// Package harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each experiment builds
// the networks it needs, runs the paper's workload, and emits the same
// rows/series the paper reports, as an aligned text table and as CSV.
package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"stashsim/internal/core"
	"stashsim/internal/network"
	"stashsim/internal/sim"
	"stashsim/internal/stats"
)

// Options selects the scale and duration of the experiments.
type Options struct {
	// Base is the run description every design point starts from: the
	// preset ("tiny", "small", or "paper", the full 3080-node configuration
	// of Section V), the master seed, the invariant checker, a fault plan
	// and stash parity for every experiment network, and the warm-snapshot
	// prefixes (the ten flags cmd/figures shares with cmd/stashsim). The
	// experiments set what they sweep — mode, capacity, workload, windows —
	// on their own copy (see point).
	Base Spec
	// OutDir, when non-empty, receives one CSV file per experiment.
	OutDir string
	// Quick shortens warmup/measurement windows (used by the benchmark
	// harness so `go test -bench` finishes in minutes).
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

// writeCSV writes a table to OutDir/<name>.csv when OutDir is set.
func (o *Options) writeCSV(name string, t *stats.Table) error {
	if o.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.OutDir, name+".csv"), []byte(t.CSV()), 0o644)
}

// point derives design point i of experiment exp from the base spec: a
// variant's mode, stash capacity and ECN; parity only on the e2e networks
// it applies to; the recovery timers on under any fault plan, so that
// dropped packets still deliver in every mode; and the point's own warm
// snapshot files, <prefix>.<experiment>.<point> — points are independent
// simulations, so the names depend on the experiment and the index, never
// on sweep scheduling. Spec.Warm refuses a checkpoint cycle outside the
// window the experiment runs through its spec: the warm-up (and for Faults
// the measured window, which Spec.Run executes). Tables are byte-identical
// with or without snapshots.
func (o *Options) point(exp string, i int, mode core.StashMode, capFrac float64, ecn bool) Spec {
	sp := o.Base
	sp.Mode, sp.CapFrac, sp.ECN = mode.String(), capFrac, ecn
	if mode != core.StashE2E {
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
}

// e2eVariants are the four networks of Figures 5 and 6.
var e2eVariants = []variant{
	{"Baseline", core.StashOff, 1.0},
	{"Stash 100% Cap.", core.StashE2E, 1.0},
	{"Stash 50% Cap.", core.StashE2E, 0.5},
	{"Stash 25% Cap.", core.StashE2E, 0.25},
}

// congVariants are the three ECN networks of Figures 7-9.
var congVariants = []variant{
	{"Baseline ECN", core.StashOff, 1.0},
	{"Stash 100% Cap.", core.StashCongestion, 1.0},
	{"Stash 50% Cap.", core.StashCongestion, 0.5},
}

// fmtF formats a float with the given precision.
func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
