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
	"stashsim/internal/fault"
	"stashsim/internal/network"
	"stashsim/internal/sim"
	"stashsim/internal/stats"
)

// Options selects the scale and duration of the experiments.
type Options struct {
	// Preset selects the network scale: "tiny", "small" (default), or
	// "paper" (the full 3080-node configuration of Section V).
	Preset string
	// OutDir, when non-empty, receives one CSV file per experiment.
	OutDir string
	// Quick shortens warmup/measurement windows (used by the benchmark
	// harness so `go test -bench` finishes in minutes).
	Quick bool
	// Seed is the master random seed.
	Seed uint64
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
	// Invariants, when positive, attaches the runtime invariant checker
	// to every network the experiments build, auditing every that many
	// cycles (the -invariants[=N] flag of cmd/figures).
	Invariants int64
	// FaultPlan, when non-nil, is injected into every experiment network
	// (the -fault-* flags of cmd/figures), with the recovery timers
	// enabled so dropped packets still deliver. The Faults experiment
	// ignores it and builds its own sweep.
	FaultPlan *fault.Plan
	// StashParity, when >= 2, erasure-codes stash copies into XOR parity
	// groups of that width on every StashE2E experiment network (the
	// -stash-parity flag of cmd/figures). Non-e2e networks ignore it, and
	// the Faults experiment overrides it per variant.
	StashParity int
	// Workers bounds the sweep-level worker pool that independent design
	// points (one network, config, RNG and collector each) fan out over;
	// 0 means GOMAXPROCS. Results are identical for any value: every
	// point's output lands in an index-addressed slot and tables are
	// assembled in index order (see forEachPoint).
	Workers int

	// CheckpointPath, when non-empty, writes a warm snapshot of every
	// design point that runs a warmup window: at the serial barrier
	// before cycle CheckpointAt — which must fall inside the warmup
	// window — the network's full state goes to
	// <CheckpointPath>.<experiment>.<point>. RestorePath resumes each
	// such point from its matching file, paying only the remaining
	// warmup cycles; measured tables are byte-identical either way (the
	// -checkpoint/-restore flags of cmd/figures).
	CheckpointPath string
	CheckpointAt   int64
	RestorePath    string

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

// base returns the preset's base configuration; an unknown preset name is
// an error.
func (o *Options) base() (*core.Config, error) {
	cfg, err := core.PresetConfig(o.Preset)
	if err != nil {
		return nil, err
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return cfg, nil
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

// watchNet attaches a stall watchdog to an experiment network: a
// zero-delivery window of `window` cycles dumps every non-idle switch to
// stderr, so a deadlocked run is diagnosable instead of silently spinning
// until its budget runs out.
func (o *Options) watchNet(n *network.Network, window int64) {
	if window <= 0 {
		return
	}
	n.AttachWatchdog(window, os.Stderr)
}

// netConfig derives one of the experiment network variants from the base
// configuration.
func (o *Options) netConfig(mode core.StashMode, capFrac float64, ecn bool) (*core.Config, error) {
	cfg, err := o.base()
	if err != nil {
		return nil, err
	}
	cfg.Mode = mode
	cfg.StashCapFrac = capFrac
	if mode == core.StashE2E {
		cfg.StashParity = o.StashParity
	}
	if ecn {
		cfg.ECN = core.DefaultECN()
	}
	if o.FaultPlan != nil {
		cfg.Fault = o.FaultPlan
		cfg.Retrans = core.DefaultRetrans()
		if mode == core.StashE2E {
			cfg.RetainPayload = true
		}
	}
	return cfg, nil
}

// variant labels one network configuration in an experiment.
type variant struct {
	name    string
	mode    core.StashMode
	capFrac float64
}

// e2eVariants are the four networks of Figures 5 and 6.
func e2eVariants() []variant {
	return []variant{
		{"Baseline", core.StashOff, 1.0},
		{"Stash 100% Cap.", core.StashE2E, 1.0},
		{"Stash 50% Cap.", core.StashE2E, 0.5},
		{"Stash 25% Cap.", core.StashE2E, 0.25},
	}
}

// congVariants are the three ECN networks of Figures 7-9.
func congVariants() []variant {
	return []variant{
		{"Baseline ECN", core.StashOff, 1.0},
		{"Stash 100% Cap.", core.StashCongestion, 1.0},
		{"Stash 50% Cap.", core.StashCongestion, 0.5},
	}
}

func (o *Options) mustNet(cfg *core.Config) *network.Network {
	n, err := network.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	if o.Invariants > 0 {
		n.EnableInvariants(o.Invariants)
	}
	if o.ExecProfiler != nil {
		if err := n.SetExecProfiler(o.ExecProfiler); err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
	}
	return n
}

// snapFile names one design point's warm-snapshot file. Points are
// independent simulations, so each gets its own file; the name depends
// only on the experiment and point index, never on sweep scheduling.
func snapFile(base, exp string, point int) string {
	return fmt.Sprintf("%s.%s.%03d", base, exp, point)
}

// warm runs one design point's warmup window, writing or loading a warm
// snapshot when the options ask for one. With RestorePath the network
// resumes from its snapshot and only the remaining warmup cycles run;
// with CheckpointPath a checkpoint of the full network state is taken at
// the serial barrier before cycle CheckpointAt. Either way the measured
// window that follows is byte-identical to a straight-through run.
func (o *Options) warm(n *network.Network, exp string, point int, cycles int64) error {
	done := int64(0)
	if o.RestorePath != "" {
		path := snapFile(o.RestorePath, exp, point)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("harness: restore: %w", err)
		}
		if err := n.Restore(data); err != nil {
			return fmt.Errorf("harness: restore %s: %w", path, err)
		}
		done = int64(n.Now)
		if done > cycles {
			return fmt.Errorf("harness: %s was checkpointed at cycle %d, past this experiment's %d-cycle warmup window",
				path, done, cycles)
		}
	}
	var ckptErr error
	if o.CheckpointPath != "" {
		if o.CheckpointAt >= cycles {
			return fmt.Errorf("harness: checkpoint cycle %d is outside %s's %d-cycle warmup window (figure checkpoints are warm snapshots)",
				o.CheckpointAt, exp, cycles)
		}
		path := snapFile(o.CheckpointPath, exp, point)
		n.ScheduleCheckpoint(o.CheckpointAt, func(now sim.Tick) {
			ckptErr = os.WriteFile(path, n.Checkpoint(now), 0o644)
		})
	}
	n.Warmup(cycles - done)
	if ckptErr != nil {
		return fmt.Errorf("harness: checkpoint: %w", ckptErr)
	}
	return nil
}

// fmtF formats a float with the given precision.
func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
