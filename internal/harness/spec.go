package harness

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/network"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/topo"
	"stashsim/internal/traffic"
)

// Spec is the one description of a run: topology, mode, workload, duration,
// seed, faults, and where to checkpoint or resume. cmd/stashsim fills one
// from its flags, cmd/figures fills the part every experiment shares
// (Options.Base), and each sweep derives its design points from that. Two
// runs with equal specs produce byte-identical summaries (enforced by
// TestRunIsDeterministic).
//
// Its methods are the steps of a run, in order: Config, New, Wire, Warm,
// Run. Build is the first three with stashsim's generator seed.
type Spec struct {
	Preset     string
	P, A, H    int // custom topology; all three > 0 to take effect
	Mode       string
	CapFrac    float64
	Load       float64
	MsgPkts    int
	Hotspots   int
	Cycles     int64
	Warmup     int64
	Seed       uint64
	ECN        bool
	Banks      bool
	ErrRate    float64
	Invariants int64 // audit interval in cycles; 0 = no checker
	// Workers is the number of workers stepping the network's blocks (see
	// network.SetWorkers). Results are bit-identical for any value
	// (enforced by TestWorkersDeterminism), so it is not part of the
	// outcome-determining contract above.
	Workers int

	// Fault injection and recovery (see internal/fault). FaultPlanPath
	// loads a JSON plan; the individual fields layer on top of (or replace)
	// it. Retrans forces the recovery timers on; they also auto-enable
	// whenever the plan drops packets in e2e mode. Drain > 0 runs up to
	// that many extra unloaded cycles after the measured window so every
	// in-flight or timer-pending packet settles, and AssertDelivery makes
	// anything but exactly-once delivery after it an error.
	FaultPlanPath  string
	FaultSeed      uint64
	DropRate       float64
	CorruptRate    float64
	Outages        string
	StashFails     string
	Retrans        bool
	StashBypass    bool
	StashParity    int
	Drain          int64
	AssertDelivery bool

	// Checkpoint/restore (see internal/network's snapshot support).
	// CheckpointPath, when set, writes a checkpoint to that file at the
	// serial barrier before cycle CheckpointAt (an absolute cycle; warmup
	// counts). RestorePath resumes a run from a checkpoint file; the rest
	// of the spec must rebuild the identical configuration, which the
	// snapshot's config fingerprint enforces. Neither affects the run's
	// outcome: a checkpointing run and a restored run both produce the
	// summary a straight-through run produces, byte for byte.
	CheckpointPath string
	CheckpointAt   int64
	RestorePath    string

	// ckptErr is what writing the scheduled checkpoint failed with; the
	// hook runs inside a Run, so Warm and Run report it when that returns.
	ckptErr error
}

// BindFlags declares the ten flags cmd/stashsim and cmd/figures share, so
// that one spelling means one thing on both.
func (sp *Spec) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&sp.Preset, "preset", "small", "network scale: tiny, small, paper")
	fs.Uint64Var(&sp.Seed, "seed", 1, "master random seed")
	fs.BoolFunc("invariants", "audit runtime conservation invariants every 64 cycles, or with -invariants=N every N (1 = every cycle, which also means a barrier every cycle)", func(s string) (err error) {
		sp.Invariants, err = core.ParseAuditEvery(s)
		return err
	})
	fs.StringVar(&sp.FaultPlanPath, "fault-plan", "", "JSON fault plan file (see internal/fault); the fault flags layer on top")
	fs.Float64Var(&sp.DropRate, "link-drop-rate", 0, "per-packet Bernoulli drop probability on every link")
	fs.StringVar(&sp.Outages, "link-outage", "", "outage windows, comma-separated link@start-end (e.g. sw0.3->sw1.2@1000-3000)")
	fs.StringVar(&sp.StashFails, "stash-fail", "", "stash-bank failures, comma-separated switch.port@cycle (e.g. 0.1@5000)")
	fs.IntVar(&sp.StashParity, "stash-parity", 0, "erasure-code stash copies into XOR parity groups of this width (0 = off; e2e mode only)")
	fs.Func("checkpoint", "write a bit-exact checkpoint as file@cycle (absolute cycle; warmup counts); resuming from it with -restore reproduces the straight-through run byte for byte. figures writes one per design point, file.<experiment>.<point>, at a cycle inside the warm-up plus measured window of every selected experiment: fig5, fig9, ablations and faults have one, fig6, fig7/fig8 and the tables are refused", func(s string) error {
		i := strings.LastIndex(s, "@")
		if i <= 0 {
			return fmt.Errorf("want file@cycle")
		}
		at, err := strconv.ParseInt(s[i+1:], 10, 64)
		if err != nil || at < 0 {
			return fmt.Errorf("want file@cycle with a non-negative cycle")
		}
		sp.CheckpointPath, sp.CheckpointAt = s[:i], at
		return nil
	})
	fs.StringVar(&sp.RestorePath, "restore", "", "resume from a checkpoint (figures: from the per-point files a -checkpoint run wrote under this name); the other flags must rebuild the identical configuration and observers")
}

// FaultPlan materializes the spec's fault plan, nil when inactive.
func (sp *Spec) FaultPlan() (*fault.Plan, error) {
	plan := &fault.Plan{Seed: sp.FaultSeed}
	if sp.FaultPlanPath != "" {
		p, err := fault.LoadPlan(sp.FaultPlanPath)
		if err != nil {
			return nil, err
		}
		plan = &p
		if sp.FaultSeed != 0 {
			plan.Seed = sp.FaultSeed
		}
	}
	if sp.DropRate > 0 {
		plan.LinkDropRate = sp.DropRate
	}
	if sp.CorruptRate > 0 {
		plan.CorruptRate = sp.CorruptRate
	}
	outages, err := fault.ParseOutages(sp.Outages)
	if err != nil {
		return nil, err
	}
	plan.Outages = append(plan.Outages, outages...)
	fails, err := fault.ParseStashFails(sp.StashFails)
	if err != nil {
		return nil, err
	}
	plan.StashFailures = append(plan.StashFailures, fails...)
	if !plan.Active() {
		return nil, nil
	}
	return plan, nil
}

// Config materializes the spec's network configuration, and is where a
// spec that cannot run is refused: before any network is built.
func (sp *Spec) Config() (*core.Config, error) {
	cfg, err := core.PresetConfig(sp.Preset)
	if err != nil {
		return nil, err
	}
	// Load 0 is valid — a network with no generators of the spec's own; fig7
	// and fig9 install theirs. A negative load or window would run the same
	// way and report an empty network's numbers, and a message of no
	// packets panics in the first endpoint that generates one.
	switch {
	case !(sp.Load >= 0):
		return nil, fmt.Errorf("load %v: want a non-negative fraction of channel capacity", sp.Load)
	case sp.Load > 0 && sp.MsgPkts < 1:
		return nil, fmt.Errorf("burst %d: a message is at least one packet", sp.MsgPkts)
	case sp.Cycles < 0 || sp.Warmup < 0 || sp.Drain < 0:
		return nil, fmt.Errorf("cycles %d, warmup %d, drain %d: none may be negative", sp.Cycles, sp.Warmup, sp.Drain)
	}
	if sp.P > 0 && sp.A > 0 && sp.H > 0 {
		cfg = core.PaperConfig()
		cfg.Topo = topo.Dragonfly{P: sp.P, A: sp.A, H: sp.H}
		radix := cfg.Topo.Radix()
		// Keep 4 rows/columns like the paper's switch; pad tile sizes.
		cfg.Rows, cfg.Cols = 4, 4
		cfg.TileIn = (radix + 3) / 4
		cfg.TileOut = (radix + 3) / 4
	}
	switch sp.Mode {
	case "baseline":
		cfg.Mode = core.StashOff
	case "e2e":
		cfg.Mode = core.StashE2E
	case "congestion":
		cfg.Mode = core.StashCongestion
		cfg.ECN = core.DefaultECN()
	default:
		return nil, fmt.Errorf("unknown mode %q", sp.Mode)
	}
	if sp.ECN {
		cfg.ECN = core.DefaultECN()
	}
	cfg.StashCapFrac = sp.CapFrac
	cfg.BankModel = sp.Banks
	cfg.Seed = sp.Seed
	if sp.ErrRate != 0 { // out of range is Validate's to refuse
		cfg.ErrorRate = sp.ErrRate
		cfg.RetainPayload = true
	}
	plan, err := sp.FaultPlan()
	if err != nil {
		return nil, err
	}
	cfg.Fault = plan
	drops := plan != nil && (plan.LinkDropRate > 0 || len(plan.Outages) > 0)
	if sp.Retrans || (drops && cfg.Mode == core.StashE2E) {
		// Drops in e2e mode strand stash entries without the recovery
		// ladder, so the timers switch on with the plan.
		cfg.Retrans = core.DefaultRetrans()
		if cfg.Mode == core.StashE2E {
			cfg.RetainPayload = true
		}
	}
	cfg.StashBypass = sp.StashBypass
	cfg.StashParity = sp.StashParity
	if sp.AssertDelivery {
		if sp.Drain <= 0 {
			return nil, fmt.Errorf("assert-delivery requires a drain window (in-flight packets would fail the check)")
		}
		if plan == nil && !cfg.Retrans.Enabled {
			return nil, fmt.Errorf("assert-delivery requires fault injection or the recovery timers")
		}
	}
	return cfg, cfg.Validate()
}

// victimClass returns the measured traffic class: with hotspot aggressors
// the background traffic is the victim class, otherwise the default.
func (sp *Spec) victimClass() proto.Class {
	if sp.Hotspots > 0 {
		return proto.ClassVictim
	}
	return proto.ClassDefault
}

// New builds the network for a configuration — Config's, or an experiment's
// edit of it — with the invariant checker and the worker pool the spec asks
// for; the caller Closes the network when done with it.
func (sp *Spec) New(cfg *core.Config) (*network.Network, error) {
	n, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	if sp.Invariants > 0 {
		n.EnableInvariants(sp.Invariants)
	}
	n.SetWorkers(sp.Workers)
	return n, nil
}

// Wire installs the synthetic workload: uniform random traffic at Load in
// messages of MsgPkts packets on every endpoint, each drawing from its own
// stream derived from rng, and with Hotspots > 0 that many 4:1 aggressor
// groups instead on the endpoints they take. It is the one place an
// RNG-driven generator is installed, so Gen and the GenRNG a checkpoint
// carries are always set together.
func (sp *Spec) Wire(n *network.Network, rng *sim.RNG) {
	rate := n.ChannelRate()
	msgFlits := sp.MsgPkts * proto.MaxPacketFlits
	victims := sp.victimClass()
	hotDst := map[int32]bool{}
	hotSrc := map[int32]bool{}
	if sp.Hotspots > 0 {
		d := n.Cfg.Topo
		// Build the destination list alongside the set: iterating the map
		// would make aggressor targeting depend on map order.
		dsts := make([]int32, 0, sp.Hotspots)
		for i := 0; i < sp.Hotspots; i++ {
			sw := (i * d.NumSwitches()) / sp.Hotspots
			id := int32(d.EndpointID(sw, 0))
			if !hotDst[id] {
				hotDst[id] = true
				dsts = append(dsts, id)
			}
		}
		k := 0
		for i := 1; k < 4*sp.Hotspots && i < d.NumEndpoints(); i += 7 {
			id := int32(i)
			if !hotDst[id] {
				hotSrc[id] = true
				k++
			}
		}
		k = 0
		for _, ep := range n.Endpoints {
			if hotSrc[ep.ID] {
				ep.Gen = traffic.Hotspot(dsts[k%len(dsts)], msgFlits, proto.ClassAggressor, 0)
				k++
			}
		}
	}
	for _, ep := range n.Endpoints {
		if ep.Gen != nil || hotDst[ep.ID] {
			continue
		}
		gen := rng.Derive(uint64(ep.ID))
		ep.Gen = traffic.Uniform(gen, len(n.Endpoints), nil,
			sp.Load, rate, msgFlits, victims, 0)
		ep.GenRNG = gen
	}
}

// Build is Config, New and Wire for a whole stashsim point, plus the
// latency histogram of the measured class that Run's percentiles read.
func (sp *Spec) Build() (*network.Network, error) {
	cfg, err := sp.Config()
	if err != nil {
		return nil, err
	}
	n, err := sp.New(cfg)
	if err != nil {
		return nil, err
	}
	n.Collectors.WithHist(sp.victimClass())
	sp.Wire(n, sim.NewRNG(sp.Seed+77))
	return n, nil
}

// Warm brings a freshly built and wired network to the end of Warmup: it
// loads RestorePath's snapshot, if any, schedules the checkpoint, if any,
// and runs what remains of the warm-up with measurement off. The run it
// opens ends at cycle Warmup + Cycles; a restored network already past the
// warm-up is left where it is, for Run to finish. A snapshot from beyond
// that end is an error, and so is a checkpoint cycle the run will never
// reach the barrier of — at or before the restored cycle, at or past the
// end — instead of a file holding some other cycle under the requested name.
func (sp *Spec) Warm(n *network.Network) error {
	end := sp.Warmup + sp.Cycles
	if sp.RestorePath != "" {
		// Restore rewinds nothing: the network is freshly built, so loading
		// the snapshot leaves the clock at the checkpointed cycle.
		data, err := os.ReadFile(sp.RestorePath)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		if err := n.Restore(data); err != nil {
			return fmt.Errorf("restore %s: %w", sp.RestorePath, err)
		}
		if int64(n.Now) > end {
			return fmt.Errorf("restore: %s was taken at cycle %d, past the end of this run at cycle %d (warmup %d + %d measured)",
				sp.RestorePath, n.Now, end, sp.Warmup, sp.Cycles)
		}
	}
	if sp.CheckpointPath != "" {
		at, from := sp.CheckpointAt, int64(n.Now)
		if at >= end || (sp.RestorePath != "" && at <= from) {
			return fmt.Errorf("checkpoint: cycle %d is outside this run, which starts at cycle %d and ends at cycle %d (warmup %d + %d measured; a drain is not checkpointable)",
				at, from, end, sp.Warmup, sp.Cycles)
		}
		n.ScheduleCheckpoint(at, func(now sim.Tick) {
			if err := os.WriteFile(sp.CheckpointPath, n.Checkpoint(now), 0o644); err != nil {
				sp.ckptErr = fmt.Errorf("checkpoint: %w", err)
			}
		})
	}
	if done := int64(n.Now); done < sp.Warmup {
		n.Warmup(sp.Warmup - done)
	}
	return sp.ckptErr
}

// Run executes the measured window of a warmed network, then the drain,
// and fills the summary's simulation-determined fields (observability
// artifacts are the caller's). The percentiles read the measured class's
// histogram and are zero on a network that keeps none (see Build). With
// AssertDelivery, anything but exactly-once delivery is an error returned
// next to the summary that shows it.
func (sp *Spec) Run(n *network.Network) (*Summary, error) {
	n.Run(sp.Warmup + sp.Cycles - int64(n.Now))
	if sp.ckptErr != nil {
		return nil, sp.ckptErr
	}
	drained := true
	if sp.Drain > 0 {
		for _, ep := range n.Endpoints {
			ep.Gen = nil
		}
		drained = n.Drain(sp.Drain)
	}

	victims := sp.victimClass()
	col := n.Collector()
	lat := col.LatAcc[victims]
	var s Summary
	s.Network = n.Describe()
	s.Mode = n.Cfg.Mode.String()
	s.Seed = sp.Seed
	s.Cycles = sp.Cycles
	s.Warmup = sp.Warmup
	s.Offered = n.NormalizedOffered(sp.Cycles)
	s.Accepted = n.NormalizedAccepted(sp.Cycles)
	s.Latency.MeanNS = lat.Mean() / 1.3
	if h := col.LatHist[victims]; h != nil {
		s.Latency.P50NS = float64(h.Percentile(50)) / 1.3
		s.Latency.P90NS = float64(h.Percentile(90)) / 1.3
		s.Latency.P99NS = float64(h.Percentile(99)) / 1.3
	}
	s.Latency.MaxNS = lat.Max / 1.3
	s.Latency.Packets = lat.N
	s.Counters = n.Counters()
	s.StashResident = n.TotalStashUsed()
	if n.Cfg.FaultActive() || n.Cfg.Retrans.Enabled {
		st := n.FaultStats()
		injected, delivered, dups, abandoned := n.DeliveryTotals()
		rec := col.RecoveryAcc
		s.Fault = &FaultSummary{
			PktsDropped:          st.PktsDropped,
			FlitsDropped:         st.FlitsDropped,
			OutagePkts:           st.OutagePkts,
			FlitsCorrupted:       st.FlitsCorrupted,
			StashCopiesLost:      st.StashCopiesLost,
			InjectedPkts:         injected,
			DeliveredUnique:      delivered,
			DuplicatesSuppressed: dups,
			Abandoned:            abandoned,
			StashResends:         s.Counters.E2ERetransmits,
			EndpointResends:      col.EndpointRetransmits,
			CorruptPkts:          col.CorruptPkts,
			RecoveredPkts:        col.RecoveredPkts,
			RecoveryMeanNS:       rec.Mean() / 1.3,
			StashReconstructed:   s.Counters.StashReconstructed,
			StashReconFailed:     s.Counters.StashReconFailed,
			Drained:              drained,
		}
	}
	if sp.AssertDelivery {
		// Config has made sure of the drain and of the fault block.
		switch fs := s.Fault; {
		case !fs.Drained:
			return &s, fmt.Errorf("assert-delivery: network did not drain within %d cycles", sp.Drain)
		case fs.DeliveredUnique != fs.InjectedPkts || fs.Abandoned != 0:
			return &s, fmt.Errorf("assert-delivery: injected %d, delivered %d, abandoned %d — not exactly-once",
				fs.InjectedPkts, fs.DeliveredUnique, fs.Abandoned)
		}
	}
	return &s, nil
}

// Summary is the -json output schema of cmd/stashsim. Run fills the
// simulation-determined fields; Metrics and everything after it describe
// what the caller attached.
type Summary struct {
	Network  string  `json:"network"`
	Mode     string  `json:"mode"`
	Seed     uint64  `json:"seed"`
	Cycles   int64   `json:"cycles"`
	Warmup   int64   `json:"warmup"`
	Offered  float64 `json:"offered"`
	Accepted float64 `json:"accepted"`

	Latency struct {
		MeanNS  float64 `json:"mean_ns"`
		P50NS   float64 `json:"p50_ns"`
		P90NS   float64 `json:"p90_ns"`
		P99NS   float64 `json:"p99_ns"`
		MaxNS   float64 `json:"max_ns"`
		Packets int64   `json:"packets"`
	} `json:"latency"`

	Counters      core.Counters      `json:"counters"`
	StashResident int                `json:"stash_resident_flits"`
	Fault         *FaultSummary      `json:"fault,omitempty"`
	Metrics       map[string]int64   `json:"metrics,omitempty"`
	TraceEvents   int                `json:"trace_events,omitempty"`
	TraceDropped  int64              `json:"trace_dropped,omitempty"`
	WatchdogStall int64              `json:"watchdog_stalls"`
	Exec          *network.ExecStats `json:"exec,omitempty"`
	ExecProfile   *sim.ExecReport    `json:"exec_profile,omitempty"`
	Artifacts     map[string]string  `json:"artifacts,omitempty"`
}

// FaultSummary is the fault-injection and recovery section of the -json
// output, present whenever a fault plan or the recovery timers are active.
type FaultSummary struct {
	PktsDropped          int64   `json:"pkts_dropped"`
	FlitsDropped         int64   `json:"flits_dropped"`
	OutagePkts           int64   `json:"outage_pkts"`
	FlitsCorrupted       int64   `json:"flits_corrupted"`
	StashCopiesLost      int64   `json:"stash_copies_lost"`
	InjectedPkts         int64   `json:"injected_pkts"`
	DeliveredUnique      int64   `json:"delivered_unique"`
	DuplicatesSuppressed int64   `json:"duplicates_suppressed"`
	Abandoned            int64   `json:"abandoned"`
	StashResends         int64   `json:"stash_resends"`
	EndpointResends      int64   `json:"endpoint_resends"`
	CorruptPkts          int64   `json:"corrupt_pkts"`
	RecoveredPkts        int64   `json:"recovered_pkts"`
	RecoveryMeanNS       float64 `json:"recovery_mean_ns"`
	StashReconstructed   int64   `json:"stash_copies_reconstructed"`
	StashReconFailed     int64   `json:"stash_recon_failed"`
	Drained              bool    `json:"drained"`
}
