package network

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/metrics"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/traffic"
)

// The block oracle. The executor runs one block of the network — a
// dragonfly group — through a whole epoch before it touches the next; the
// claim that makes that exact is "nothing a block is sent during an epoch
// is due inside it". The reference is therefore a run that takes no such
// liberty: the network advanced one Run(1) at a time (see reference in
// wake_test.go), every component through cycle c before any steps c+1,
// which is the order this executor walked before it blocked time. A
// blocked run must agree with it on everything observable.

// blockGridKinds are the behaviour regimes of the block grid.
var blockGridKinds = []wakeGridKind{
	{"faults-parity", func(cfg *core.Config) {
		cfg.Mode = core.StashE2E
		cfg.StashParity = 4
		cfg.Retrans = core.DefaultRetrans()
		cfg.RetainPayload = true
		// Bank failures in the middle of epochs, on tiny and on small.
		cfg.Fault = &fault.Plan{Seed: 9, LinkDropRate: 2e-3, CorruptRate: 1e-3,
			StashFailures: []fault.StashFail{
				{Switch: 0, Port: 0, At: 333}, {Switch: 1, Port: 1, At: 777},
				{Switch: 2, Port: 0, At: 1210}, {Switch: 0, Port: 2, At: 1211}}}
	}},
	{"ecn-hotspots", func(cfg *core.Config) {
		cfg.Mode = core.StashCongestion
		cfg.ECN = core.DefaultECN()
	}},
	{"baseline", func(cfg *core.Config) { cfg.Mode = core.StashOff }},
}

// driveBlockGrid is the grid's script: 1400 loaded cycles advanced in
// public Run calls of chunk cycles (0: one call) — each of which ends an
// epoch, so the chunking moves where the blocks take turns — then a
// drain, with the machine state captured at two cycles that fall inside
// an epoch on either preset (lookahead 65 and 650).
func driveBlockGrid(n *Network, run runner, kind string, chunk int64) *wakeObs {
	o := observe(n, 417, 1101)
	rng := sim.NewRNG(n.Cfg.Seed + 77)
	load := 0.25
	if kind == "ecn-hotspots" {
		load = 0.4
	}
	for i, ep := range n.Endpoints {
		gen := rng.Derive(uint64(ep.ID))
		ep.GenRNG = gen
		if kind == "ecn-hotspots" && i%11 == 3 {
			ep.Gen = traffic.Hotspot(int32(i%2), proto.MaxPacketFlits, proto.ClassAggressor, 0)
			continue
		}
		ep.Gen = traffic.Uniform(gen, len(n.Endpoints), nil, load, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	for left := int64(1400); left > 0; {
		step := left
		if chunk > 0 && chunk < step {
			step = chunk
		}
		run.Run(step)
		left -= step
	}
	for _, ep := range n.Endpoints {
		ep.Gen = nil
	}
	run.Drain(400000)
	return o.finish(n)
}

// TestBlockedMatchesOneBlock is the block invariant over presets x {e2e +
// drops + parity 4 + bank failures, congestion + ECN + hotspots, baseline}
// x workers {1, 2, 4} x Run chunkings {1, 7, 64, 650, 1000}: summary
// statistics, every endpoint's delivery sequence and packet counts, and the
// checkpoint bytes taken mid-epoch and at the end all equal the reference
// run's. One worker is the case only this test covers — with several,
// blocks of different workers never shared a loop in the first place.
func TestBlockedMatchesOneBlock(t *testing.T) {
	presets := []string{"tiny", "small"}
	workerCounts := []int{1, 2, 4}
	chunks := []int64{1, 7, 64, 650, 1000}
	if testing.Short() {
		presets, workerCounts, chunks = presets[:1], workerCounts[:2], []int64{7, 1000}
	}
	for _, preset := range presets {
		for _, kind := range blockGridKinds {
			preset, kind := preset, kind
			t.Run(preset+"/"+kind.name, func(t *testing.T) {
				t.Parallel()
				build := func() *Network {
					cfg := core.TinyConfig()
					if preset == "small" {
						cfg = core.SmallConfig()
					}
					kind.setup(cfg)
					n, err := New(cfg)
					if err != nil {
						t.Fatalf("New: %v", err)
					}
					return n
				}
				ref := build()
				want := driveBlockGrid(ref, reference{ref}, kind.name, 0)
				if st := ref.ExecStats(); st.CyclesPerSync != 1 {
					t.Fatalf("the reference ran %.2f cycles per epoch, want 1", st.CyclesPerSync)
				}
				for _, workers := range workerCounts {
					for _, chunk := range chunks {
						n := build()
						n.SetWorkers(workers)
						if st := n.ExecStats(); st.Blocks != n.Cfg.Topo.Groups() {
							t.Fatalf("workers=%d: %d blocks, want one per group (%d)", workers, st.Blocks, n.Cfg.Topo.Groups())
						}
						got := driveBlockGrid(n, n, kind.name, chunk)
						n.Close()
						t.Logf("workers=%d chunk=%d", workers, chunk)
						got.mustEqual(t, want)
					}
				}
			})
		}
	}
}

// TestBlocksIndependentOfWorkers pins the cut: a block is a dragonfly
// group at every worker count up to the group count, one worker included,
// and the epoch cap is the global latency at all of them; past the group
// count a block is a run of switches, one per worker. A single worker
// stages no link — its epochs have nothing to drain.
func TestBlocksIndependentOfWorkers(t *testing.T) {
	n := quietNet(t, nil)
	defer n.Close()
	groups := n.Cfg.Topo.Groups()
	for _, pt := range []struct {
		workers, blocks int
		lookahead       int64
	}{{1, groups, 65}, {2, groups, 65}, {groups, groups, 65}, {12, 12, 13}} {
		n.SetWorkers(pt.workers)
		if st := n.ExecStats(); st.Blocks != pt.blocks || st.Workers != pt.workers || n.EpochLookahead() != pt.lookahead {
			t.Fatalf("workers=%d: %d blocks on %d workers at lookahead %d, want %d blocks at %d",
				pt.workers, st.Blocks, st.Workers, n.EpochLookahead(), pt.blocks, pt.lookahead)
		}
	}
	n.SetWorkers(1)
	before := n.ExecStats().Epochs
	n.Endpoints[0].EnqueueMessage(farEndpoint(n), 4*proto.MaxPacketFlits, proto.ClassDefault, 1)
	n.Run(650)
	if epochs := n.ExecStats().Epochs - before; epochs != 10 {
		t.Fatalf("one worker ran 650 cycles in %d epochs, want 10 of 65", epochs)
	}
	for _, s := range n.Switches {
		for p := 0; p < n.Cfg.Topo.Radix(); p++ {
			if s.AuditOutLink(p).Staged() {
				t.Fatalf("sw%d.%d stages its pushes on a single worker", s.ID, p)
			}
		}
	}
}

// TestTraceExportInTimeOrder: the tracer's ring fills in record order,
// which under block-by-block stepping is not simulated-time order even on
// one worker; the exports promise time order. Without overflow the blocked
// run must also hold exactly the events of the reference run, which records
// in time order to begin with.
func TestTraceExportInTimeOrder(t *testing.T) {
	run := func(cycleMajor bool) *metrics.Tracer {
		cfg := core.SmallConfig()
		cfg.Mode = core.StashE2E
		n, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		tr := metrics.NewTracer(1 << 20)
		n.EnableTracing(tr)
		wireSnapTraffic(n, cfg, snapScenario{load: 0.2})
		if cycleMajor {
			reference{n}.Run(1500)
		} else {
			n.Run(1500)
		}
		if tr.Dropped() != 0 {
			t.Fatalf("the ring overflowed (%d dropped): the test compares complete traces", tr.Dropped())
		}
		return tr
	}
	tr, ref := run(false), run(true)
	got, want := tr.Events(), ref.Events()
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("blocked run traced %d events, the reference run %d", len(got), len(want))
	}
	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	last, lines := int64(-1), 0
	for sc := bufio.NewScanner(&jsonl); sc.Scan(); lines++ {
		var at int64
		if _, err := fmt.Sscanf(sc.Text(), `{"t":%d,`, &at); err != nil {
			t.Fatalf("line %d: %v: %s", lines, err, sc.Text())
		}
		if at < last {
			t.Fatalf("JSONL line %d is at cycle %d, after a line at cycle %d", lines, at, last)
		}
		last = at
	}
	if lines != len(got) {
		t.Fatalf("JSONL has %d lines for %d events", lines, len(got))
	}
	// Same events: within a cycle the order is the recording order, which
	// differs (each block, not the whole network, is in ID order), so
	// compare as multisets.
	canon := func(evs []metrics.Event) []string {
		out := make([]string, len(evs))
		for i, ev := range evs {
			out[i] = fmt.Sprint(ev)
		}
		sort.Strings(out)
		return out
	}
	g, w := canon(got), canon(want)
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("blocked trace holds %s where the reference holds %s", g[i], w[i])
		}
	}
}

// TestSerialSteadyStateAllocFree is TestParallelSteadyStateAllocFree for
// one worker: two full epochs of block-by-block stepping touch the
// allocator as little as the cycle-by-cycle walk did.
func TestSerialSteadyStateAllocFree(t *testing.T) {
	n := loadedTiny(t)
	n.Run(5000)
	for _, ep := range n.Endpoints {
		ep.Gen = nil
	}
	n.Run(50)
	if la := n.EpochLookahead(); la != 65 {
		t.Fatalf("alloc guard expected group blocks (lookahead 65), got %d", la)
	}
	allocs := testing.AllocsPerRun(20, func() { n.Run(130) })
	if allocs > 0 {
		t.Fatalf("steady-state Run(130) on one worker allocates %.2f/op, want 0", allocs)
	}
}
