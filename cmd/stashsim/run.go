package main

import (
	"fmt"
	"os"

	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/network"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/topo"
	"stashsim/internal/traffic"
)

// simSpec captures everything that determines a simulation's outcome:
// topology, mode, workload, duration, and seed. Two runs with equal
// specs produce byte-identical summaries (enforced by TestRunIsDeterministic).
type simSpec struct {
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
	// loads a JSON plan; the individual flags layer on top of (or replace)
	// it. Retrans forces the recovery timers on; they also auto-enable
	// whenever the plan drops packets in e2e mode. Drain > 0 runs up to
	// that many extra unloaded cycles after the measured window so every
	// in-flight or timer-pending packet settles.
	FaultPlanPath string
	FaultSeed     uint64
	DropRate      float64
	CorruptRate   float64
	Outages       string
	StashFails    string
	Retrans       bool
	StashBypass   bool
	StashParity   int
	Drain         int64

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
}

// faultPlan materializes the spec's fault plan, nil when inactive.
func (sp *simSpec) faultPlan() (*fault.Plan, error) {
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

// config materializes the spec's network configuration.
func (sp *simSpec) config() (*core.Config, error) {
	cfg, err := core.PresetConfig(sp.Preset)
	if err != nil {
		return nil, err
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
	if sp.ErrRate > 0 {
		cfg.ErrorRate = sp.ErrRate
		cfg.RetainPayload = true
	}
	plan, err := sp.faultPlan()
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
	return cfg, nil
}

// victimClass returns the measured traffic class: with hotspot aggressors
// the background traffic is the victim class, otherwise the default.
func (sp *simSpec) victimClass() proto.Class {
	if sp.Hotspots > 0 {
		return proto.ClassVictim
	}
	return proto.ClassDefault
}

// build constructs the network, wires the synthetic workload and starts
// the worker pool; the caller Closes the network when done with it.
func (sp *simSpec) build() (*network.Network, error) {
	cfg, err := sp.config()
	if err != nil {
		return nil, err
	}
	n, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	if sp.Invariants > 0 {
		n.EnableInvariants(sp.Invariants)
	}

	rng := sim.NewRNG(sp.Seed + 77)
	rate := n.ChannelRate()
	msgFlits := sp.MsgPkts * proto.MaxPacketFlits
	victims := sp.victimClass()
	n.Collectors.WithHist(victims)
	hotDst := map[int32]bool{}
	hotSrc := map[int32]bool{}
	if sp.Hotspots > 0 {
		d := cfg.Topo
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
	n.SetWorkers(sp.Workers)
	return n, nil
}

// run executes warmup plus the measured window and fills the summary's
// simulation-determined fields (observability artifacts are the caller's).
func (sp *simSpec) run(n *network.Network) *runSummary {
	// Restore rewinds nothing: the network is freshly built, so loading
	// the snapshot leaves the clock at the checkpointed cycle and the run
	// below covers only the remaining warmup and measured cycles.
	done := int64(0)
	if sp.RestorePath != "" {
		data, err := os.ReadFile(sp.RestorePath)
		if err != nil {
			fatalf("restore: %v", err)
		}
		if err := n.Restore(data); err != nil {
			fatalf("restore: %v", err)
		}
		done = int64(n.Now)
		if total := sp.Warmup + sp.Cycles; done > total {
			fatalf("restore: checkpoint was taken at cycle %d, past this run's warmup %d + cycles %d",
				done, sp.Warmup, sp.Cycles)
		}
	}
	if sp.CheckpointPath != "" {
		path := sp.CheckpointPath
		n.ScheduleCheckpoint(sp.CheckpointAt, func(now sim.Tick) {
			if err := os.WriteFile(path, n.Checkpoint(now), 0o644); err != nil {
				fatalf("checkpoint: %v", err)
			}
		})
	}
	if done < sp.Warmup {
		n.Warmup(sp.Warmup - done)
		n.Run(sp.Cycles)
	} else {
		n.Run(sp.Warmup + sp.Cycles - done)
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
	h := col.LatHist[victims]
	var s runSummary
	s.Network = n.Describe()
	s.Mode = n.Cfg.Mode.String()
	s.Seed = sp.Seed
	s.Cycles = sp.Cycles
	s.Warmup = sp.Warmup
	s.Offered = n.NormalizedOffered(sp.Cycles)
	s.Accepted = n.NormalizedAccepted(sp.Cycles)
	s.Latency.MeanNS = lat.Mean() / 1.3
	s.Latency.P50NS = float64(h.Percentile(50)) / 1.3
	s.Latency.P90NS = float64(h.Percentile(90)) / 1.3
	s.Latency.P99NS = float64(h.Percentile(99)) / 1.3
	s.Latency.MaxNS = lat.Max / 1.3
	s.Latency.Packets = lat.N
	s.Counters = n.Counters()
	s.StashResident = n.TotalStashUsed()
	if n.Cfg.FaultActive() || n.Cfg.Retrans.Enabled {
		st := n.FaultStats()
		injected, delivered, dups, abandoned := n.DeliveryTotals()
		rec := col.RecoveryAcc
		s.Fault = &faultSummary{
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
	return &s
}
