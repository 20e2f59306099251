package main

import (
	"fmt"

	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/network"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/traffic"
)

// kind selects the shape of a workload's timed region.
type kind int

const (
	// rateDriven: generators offer a fixed load; the timed region is a
	// fixed number of equal cycle blocks (plus a drain, when set).
	rateDriven kind = iota
	// replay: each round builds a fresh network and replays one trace
	// to completion; the run is dependency-driven, not rate-driven.
	replay
	// resume: a source network is warmed and checkpointed once; each
	// round builds a fresh network, restores it and runs on.
	resume
)

// workload is one named set of inputs. Cycle counts are constants of
// this file, identical on every commit: the amount of simulated work is
// blocks*seconds blocks of block cycles, so a faster simulator shows as
// a shorter wall_s and the simulated statistics stay comparable exactly.
type workload struct {
	name string
	why  string
	kind kind

	paper   bool // PaperConfig; SmallConfig otherwise
	mode    core.StashMode
	load    float64
	class   proto.Class // the measured traffic class
	workers int

	warmup int64   // cycles before measurement starts
	block  int64   // cycles per timed block (per post-restore run for resume)
	blocks float64 // timed blocks (or rounds) per requested second

	hotspots int     // 4:1 hotspot aggressor groups (hotspot-cong)
	dropRate float64 // > 0: per-link drops, plus parity, bank failures and recovery timers
	drain    int64   // drain budget inside the timed region, 0 = none
	iters    float64 // tracegen iteration scale (replay)

	// Set by sized.
	seconds      int
	nblocks      int   // timed blocks (or rounds) of this run
	tiny         bool  // TinyConfig scale-down, for the test suite
	replayBudget int64 // cycle budget of one Replay.Run
	probeSteps   int   // length of one host-probe sample
}

// workloads is the fixed table. The block sizes were chosen on the
// reference host (2 CPUs, go1.24) so that each timed block takes
// ~0.4-0.6 s there and a run with -seconds 5 measures ~5 s.
var workloads = []workload{
	{
		name: "ur-serial",
		why:  "Fig. 5 design point: small dragonfly, e2e stashing, uniform 30% load, serial; Switch.Step dominates and every packet writes a stash copy",
		mode: core.StashE2E, load: 0.30, class: proto.ClassDefault, workers: 1,
		warmup: 2600, block: 650, blocks: 2,
	},
	{
		name: "ur-par",
		why:  "same inputs as ur-serial through the 2-worker epoch executor and cross-partition link slabs; simulated statistics must equal ur-serial's",
		mode: core.StashE2E, load: 0.30, class: proto.ClassDefault, workers: 2,
		warmup: 2600, block: 650, blocks: 2,
	},
	{
		name:  "sparse-paper",
		why:   "paper-scale dragonfly at 5% load, warm-up past the 650-cycle global link: mostly idle ports, where idle-skipping or event-driven work shows",
		paper: true,
		mode:  core.StashE2E, load: 0.05, class: proto.ClassDefault, workers: 1,
		warmup: 2600, block: 200, blocks: 2,
	},
	{
		name: "hotspot-cong",
		why:  "congestion stashing with ECN under two 4:1 hotspots: HoL absorb then retrieve, the stash path the e2e workloads never take",
		mode: core.StashCongestion, load: 0.40, class: proto.ClassVictim, workers: 1,
		warmup: 2600, block: 650, blocks: 2, hotspots: 2,
	},
	{
		name: "faults-parity",
		why:  "link drops, parity groups, 24 staggered bank failures and recovery timers, drained to exactly-once delivery inside the timed region",
		mode: core.StashE2E, load: 0.20, class: proto.ClassDefault, workers: 1,
		warmup: 2600, block: 650, blocks: 2, dropRate: 1e-3, drain: 400_000,
	},
	{
		name: "replay-lat",
		why:  "latency-bound MiniFE trace replay (Fig. 6): most cycles move nothing and progress is dependency-driven, the event-driven target",
		kind: replay,
		mode: core.StashE2E, class: proto.ClassTrace, workers: 1,
		blocks: 0.6, iters: 0.125,
	},
	{
		name:  "warm-resume",
		why:   "figures -restore flow at paper scale: build, restore a warm checkpoint, run on; snapshot codec and construction cost show only here",
		kind:  resume,
		paper: true,
		mode:  core.StashE2E, load: 0.10, class: proto.ClassDefault, workers: 1,
		warmup: 2600, block: 100, blocks: 2,
	},
}

// bankFailures is the number of stash banks faults-parity fails; every
// preset has at least this many switches.
const bankFailures = 24

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sized fixes the amount of work of one run: blocks-per-second times
// the requested seconds. With tiny set it shrinks the workload for the
// test suite: TinyConfig (36 switches, 72 endpoints, 65-cycle global
// link), a tenth of the warm-up and four blocks. The benchmark itself
// always runs at full scale.
func (w *workload) sized(seconds int, tiny bool) workload {
	s := *w
	s.seconds = seconds
	s.nblocks = int(w.blocks*float64(seconds) + 0.5)
	if s.nblocks < 1 {
		s.nblocks = 1
	}
	s.replayBudget = 3_000_000
	s.probeSteps = 500_000 // ~60 ms
	if tiny {
		s.tiny = true
		s.nblocks = 4
		s.probeSteps = 20_000
		s.warmup /= 10
		// A fifth of the endpoints holds a fifth of the stash copies; more
		// drops keep enough of them resident for the bank failures to
		// find sealed parity groups.
		s.dropRate *= 10
	}
	return s
}

// config materialises the network configuration the way cmd/stashsim's
// simSpec.config does. The seed reaches the simulator only here and in
// wire: as the config seed, the generator seeds and the fault seed.
func (w *workload) config(seed uint64) *core.Config {
	var cfg *core.Config
	switch {
	case w.tiny:
		cfg = core.TinyConfig()
	case w.paper:
		cfg = core.PaperConfig()
	default:
		cfg = core.SmallConfig()
	}
	cfg.Mode = w.mode
	cfg.StashCapFrac = 1
	cfg.Seed = seed
	if w.mode == core.StashCongestion {
		cfg.ECN = core.DefaultECN()
	}
	if w.dropRate > 0 {
		cfg.Retrans = core.DefaultRetrans()
		cfg.RetainPayload = true
		cfg.StashParity = 4
		plan := &fault.Plan{Seed: seed + 101, LinkDropRate: w.dropRate}
		// Bank failures staggered through the measured window, one per
		// switch. A failure rebuilds only the copies that sit in a sealed
		// parity group at that instant (a handful), so it takes a couple
		// of dozen of them before every seed sees reconstructions.
		measured := w.block * int64(w.nblocks)
		for i := 0; i < bankFailures; i++ {
			plan.StashFailures = append(plan.StashFailures, fault.StashFail{
				Switch: i, Port: i % 3, At: w.warmup + measured*int64(i+1)/(bankFailures+1)})
		}
		cfg.Fault = plan
	}
	return cfg
}

// checkSteadyState refuses a rate-driven workload whose warm-up is
// shorter than four times its longest link latency: such a run times
// the network filling, not steady state (the 400-cycle settle against a
// 650-cycle global link that BENCH_hotpath.json's paper rows suffer).
func (w *workload) checkSteadyState(cfg *core.Config) error {
	if w.kind == replay {
		return nil
	}
	longest := cfg.Lat.Endpoint
	if cfg.Lat.Local > longest {
		longest = cfg.Lat.Local
	}
	if cfg.Lat.Global > longest {
		longest = cfg.Lat.Global
	}
	if w.warmup < 4*longest {
		return fmt.Errorf("workload %s: warm-up of %d cycles is shorter than 4x the longest link latency (%d cycles)",
			w.name, w.warmup, longest)
	}
	return nil
}

// wire attaches the synthetic traffic the way cmd/stashsim's
// simSpec.build does. A replay workload gets no generators; its trace
// drives it.
func (w *workload) wire(n *network.Network, seed uint64) {
	cfg := n.Cfg
	n.Collectors.WithHist(w.class)
	if w.kind == replay {
		return
	}
	rng := sim.NewRNG(seed + 77)
	rate := n.ChannelRate()
	msgFlits := proto.MaxPacketFlits
	hotDst := map[int32]bool{}
	if w.hotspots > 0 {
		d := cfg.Topo
		dsts := make([]int32, 0, w.hotspots)
		for i := 0; i < w.hotspots; i++ {
			id := int32(d.EndpointID(i*d.NumSwitches()/w.hotspots, 0))
			if !hotDst[id] {
				hotDst[id] = true
				dsts = append(dsts, id)
			}
		}
		k := 0
		for i := 1; k < 4*w.hotspots && i < d.NumEndpoints(); i += 7 {
			if ep := n.Endpoints[i]; !hotDst[ep.ID] {
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
		ep.Gen = traffic.Uniform(gen, len(n.Endpoints), nil, w.load, rate, msgFlits, w.class, 0)
		ep.GenRNG = gen
	}
}
