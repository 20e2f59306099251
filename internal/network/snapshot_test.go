package network

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/metrics"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/topo"
	"stashsim/internal/traffic"
)

// The resume-equality harness. Every grid point builds three identically
// configured networks: a straight-through golden run, a run that
// checkpoints mid-flight (and must be unperturbed by doing so), and a
// fresh network restored from that checkpoint which runs only the
// remaining cycles. All three must end in the same state, compared via
// the strongest observable available — the checkpoint bytes of the final
// state, which cover every counter, buffer, timer, and RNG stream.

// snapScenario names a workload/fault shape of the grid.
type snapScenario struct {
	name   string
	mode   core.StashMode
	parity int
	ecn    bool
	fault  *fault.Plan
	load   float64
}

func snapScenarios(failAt int64) []snapScenario {
	return []snapScenario{
		// Drops plus a scheduled bank failure: the checkpoint lands with
		// retry timers armed (mid-backoff) and the failure still pending.
		{name: "faults", mode: core.StashE2E, load: 0.25,
			fault: &fault.Plan{Seed: 9, LinkDropRate: 2e-3,
				StashFailures: []fault.StashFail{{Switch: 0, Port: 0, At: failAt}}}},
		// Parity groups with two bank failures bracketing the checkpoint:
		// the first one's reconstruction is in flight when the snapshot is
		// taken, the second fires after restore.
		{name: "parity", mode: core.StashE2E, parity: 4, load: 0.25,
			fault: &fault.Plan{Seed: 9, LinkDropRate: 1e-3,
				StashFailures: []fault.StashFail{
					{Switch: 0, Port: 1, At: failAt - 3},
					{Switch: 1, Port: 0, At: failAt + 400},
				}}},
		// Congestion stashing with ECN windows and per-destination state.
		{name: "ecn", mode: core.StashCongestion, ecn: true, load: 0.45},
	}
}

// snapConfig materializes one scenario on one preset.
func snapConfig(preset string, sc snapScenario) *core.Config {
	var cfg *core.Config
	if preset == "small" {
		cfg = core.SmallConfig()
	} else {
		cfg = core.TinyConfig()
	}
	cfg.Mode = sc.mode
	if sc.ecn {
		cfg.ECN = core.DefaultECN()
	}
	cfg.StashParity = sc.parity
	if sc.fault != nil {
		plan := *sc.fault
		cfg.Fault = &plan
		cfg.Retrans = core.DefaultRetrans()
		if sc.mode == core.StashE2E {
			cfg.RetainPayload = true
		}
	}
	return cfg
}

// buildSnapNet builds a network for the scenario with the full observer
// set attached (so the snapshot covers metrics, sampler, watchdog, and
// invariant state) and uniform traffic wired with restorable RNG streams.
func buildSnapNet(t *testing.T, cfg *core.Config, sc snapScenario) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	attachSnapObservers(n)
	wireSnapTraffic(n, cfg, sc)
	return n
}

// attachSnapObservers attaches the grid's observers, in the order a
// restore must repeat: the invariant checker, the metrics registry, the
// sampler and the watchdog.
func attachSnapObservers(n *Network) {
	n.Observe(NewInvariants(n, 64))
	n.EnableMetrics(metrics.NewRegistry())
	n.Observe(NewSampler(n, 250))
	n.Observe(NewWatchdog(n, 100000, io.Discard, nil))
}

// wireSnapTraffic installs the grid's uniform workload with restorable
// per-endpoint RNG streams.
func wireSnapTraffic(n *Network, cfg *core.Config, sc snapScenario) {
	rng := sim.NewRNG(cfg.Seed + 77)
	rate := n.ChannelRate()
	for _, ep := range n.Endpoints {
		gen := rng.Derive(uint64(ep.ID))
		ep.Gen = traffic.Uniform(gen, len(n.Endpoints), nil,
			sc.load, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
		ep.GenRNG = gen
	}
}

// runSnapNet advances the network to absolute cycle `upto` with the
// given worker count, its epochs held to at most cap cycles by an observer
// (0 = full lookahead).
func runSnapNet(n *Network, workers int, cap int64, upto int64) {
	n.SetWorkers(workers)
	if cap > 0 {
		n.Observe(every(cap))
	}
	n.Run(upto - int64(n.Now))
}

// finalState returns the network's complete end-of-run state as bytes.
func finalState(n *Network) []byte {
	return n.Checkpoint(n.Now)
}

// TestResumeEquality is the grid: presets x workers {1, 4, 12 > tiny's 9
// groups} x epochs {"off" = capped to one cycle, "auto" = full lookahead}
// x {faults, parity, ecn}, each point checkpointing mid-run — at a cycle
// chosen to land mid-epoch, mid-retry-backoff, and (for the parity
// scenario) mid-reconstruction — and requiring the checkpointing run and
// the restored run to finish byte-identical to straight-through. The
// restored run deliberately executes under a different worker/cap
// combination than the run that took the checkpoint: snapshots are
// partition-canonical.
func TestResumeEquality(t *testing.T) {
	type point struct {
		preset  string
		workers int
		cap     int64 // 1 = "off": a barrier every cycle; 0 = "auto"
	}
	points := []point{
		{"tiny", 1, 1},
		{"tiny", 4, 1},
		{"tiny", 1, 0},
		{"tiny", 4, 0},
		{"tiny", 12, 0},
	}
	if !testing.Short() {
		points = append(points, point{"small", 4, 0}, point{"small", 1, 1})
	}
	const total, ckptAt = 3000, 1337 // odd cycle: never an epoch boundary
	for _, pt := range points {
		for _, sc := range snapScenarios(ckptAt) {
			pt, sc := pt, sc
			name := pt.preset + "/" + sc.name + "/w" + strconv.Itoa(pt.workers)
			if pt.cap == 1 {
				name += "/off"
			} else {
				name += "/auto"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := snapConfig(pt.preset, sc)

				golden := buildSnapNet(t, cfg, sc)
				defer golden.Close()
				runSnapNet(golden, pt.workers, pt.cap, total)
				want := finalState(golden)

				// The checkpointing run: taking a snapshot must not
				// perturb the simulation.
				ck := buildSnapNet(t, snapConfig(pt.preset, sc), sc)
				defer ck.Close()
				var snap []byte
				ck.ScheduleCheckpoint(ckptAt, func(now sim.Tick) {
					if int64(now) != ckptAt {
						t.Errorf("checkpoint fired at cycle %d, want %d", now, ckptAt)
					}
					snap = ck.Checkpoint(now)
				})
				runSnapNet(ck, pt.workers, pt.cap, total)
				if snap == nil {
					t.Fatal("checkpoint hook never fired")
				}
				if got := finalState(ck); !bytes.Equal(got, want) {
					t.Fatalf("checkpointing run diverged from straight-through (%d vs %d state bytes)", len(got), len(want))
				}

				// The restored run, under the opposite worker count and cap.
				rw, rc := 4, int64(0)
				if pt.workers > 1 {
					rw = 1
				}
				if pt.cap == 0 {
					rc = 1
				}
				rn := buildSnapNet(t, snapConfig(pt.preset, sc), sc)
				defer rn.Close()
				if err := rn.Restore(snap); err != nil {
					t.Fatalf("Restore: %v", err)
				}
				if int64(rn.Now) != ckptAt {
					t.Fatalf("restored clock at %d, want %d", rn.Now, ckptAt)
				}
				runSnapNet(rn, rw, rc, total)
				if got := finalState(rn); !bytes.Equal(got, want) {
					t.Fatalf("restored run diverged from straight-through (%d vs %d state bytes)", len(got), len(want))
				}
			})
		}
	}
}

// TestCheckpointRoundTrip: Checkpoint -> Restore -> Checkpoint produces
// identical bytes, and a checkpoint of the same cycle is byte-identical
// whether taken with one partition or four (the partition-canonical link
// encoding).
func TestCheckpointRoundTrip(t *testing.T) {
	sc := snapScenarios(900)[0]
	const ckptAt = 1111

	take := func(workers int, cap int64) []byte {
		n := buildSnapNet(t, snapConfig("tiny", sc), sc)
		defer n.Close()
		var snap []byte
		n.ScheduleCheckpoint(ckptAt, func(now sim.Tick) { snap = n.Checkpoint(now) })
		runSnapNet(n, workers, cap, ckptAt+1)
		if snap == nil {
			t.Fatal("checkpoint hook never fired")
		}
		return snap
	}

	serial := take(1, 1)
	epoch := take(4, 0)
	if !bytes.Equal(serial, epoch) {
		t.Fatalf("checkpoint bytes differ across executors: %d serial vs %d epoch", len(serial), len(epoch))
	}

	rn := buildSnapNet(t, snapConfig("tiny", sc), sc)
	defer rn.Close()
	if err := rn.Restore(serial); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	again := rn.Checkpoint(rn.Now)
	if !bytes.Equal(serial, again) {
		t.Fatalf("restore -> checkpoint not byte-identical: %d vs %d bytes", len(serial), len(again))
	}
}

// TestRestoreRejectsMismatchedConfig exercises every fingerprint axis a
// user can realistically get wrong: each mutated configuration must be
// rejected loudly, never half-restored.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	sc := snapScenarios(900)[0]
	src := buildSnapNet(t, snapConfig("tiny", sc), sc)
	defer src.Close()
	var snap []byte
	src.ScheduleCheckpoint(500, func(now sim.Tick) { snap = src.Checkpoint(now) })
	runSnapNet(src, 1, 1, 600)
	if snap == nil {
		t.Fatal("checkpoint hook never fired")
	}

	axes := []struct {
		name   string
		mutate func(*core.Config)
	}{
		// One more global link per switch: radix 8 still fits the tiny
		// preset's 4x2 tile array, so only the fingerprint can object.
		{"topology", func(c *core.Config) { c.Topo = topo.Dragonfly{P: 2, A: 4, H: 3} }},
		{"mode", func(c *core.Config) { c.Mode = core.StashCongestion; c.ECN = core.DefaultECN() }},
		{"seed", func(c *core.Config) { c.Seed++ }},
		{"capfrac", func(c *core.Config) { c.StashCapFrac = 0.5 }},
		{"parity", func(c *core.Config) { c.StashParity = 4 }},
		{"banks", func(c *core.Config) { c.BankModel = true }},
		{"fault-plan", func(c *core.Config) { c.Fault.LinkDropRate = 5e-3 }},
		{"no-fault", func(c *core.Config) {
			c.Fault = nil
			c.Retrans = core.RetransParams{}
			c.RetainPayload = false
		}},
	}
	for _, ax := range axes {
		t.Run(ax.name, func(t *testing.T) {
			cfg := snapConfig("tiny", sc)
			ax.mutate(cfg)
			n, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer n.Close()
			err = n.Restore(snap)
			if err == nil {
				t.Fatal("Restore accepted a mismatched config")
			}
			if !strings.Contains(err.Error(), "mismatch") && !strings.Contains(err.Error(), "different build") {
				t.Fatalf("mismatch error not loud enough: %v", err)
			}
		})
	}

	// The observers are walked as one list, in registration order: a
	// restore with other observability flags fails naming them, whichever
	// way the lists differ.
	for _, c := range []struct {
		name   string
		attach func(n *Network)
	}{
		{"observer-mismatch", func(*Network) {}}, // none attached
		{"observer-missing", func(n *Network) {
			n.Observe(NewInvariants(n, 64))
			n.EnableMetrics(metrics.NewRegistry())
			n.Observe(NewSampler(n, 250))
		}},
		{"observer-extra", func(n *Network) {
			attachSnapObservers(n)
			n.Observe(NewSampler(n, 500))
		}},
		{"observer-swapped", func(n *Network) {
			n.Observe(NewInvariants(n, 64))
			n.EnableMetrics(metrics.NewRegistry())
			n.Observe(NewWatchdog(n, 100000, io.Discard, nil))
			n.Observe(NewSampler(n, 250))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := snapConfig("tiny", sc)
			n, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer n.Close()
			c.attach(n)
			wireSnapTraffic(n, cfg, sc)
			err = n.Restore(snap)
			if err == nil || !strings.Contains(err.Error(), "identical observability flags") {
				t.Fatalf("observer mismatch not rejected loudly: %v", err)
			}
		})
	}

	t.Run("stepped-network", func(t *testing.T) {
		n := buildSnapNet(t, snapConfig("tiny", sc), sc)
		defer n.Close()
		n.Run(10)
		if err := n.Restore(snap); err == nil ||
			!strings.Contains(err.Error(), "freshly built") {
			t.Fatalf("stepped network not rejected: %v", err)
		}
	})
}

// TestRestoreReschedulesSerialSingletons pins down satellite coverage for
// the serial-singleton schedules: the sampler's fixed intervals, the
// invariant auditor, the watchdog's window clock, and a scheduled
// stash-bank failure must all fire on the same absolute cycles in a
// restored run as in the straight-through run. Interval observers fire on
// now%every==0 and the stash failure on its planned cycle, so any
// rescheduling bug shows up as a diverging sample row, audit count, stall
// count, or fault statistic.
func TestRestoreReschedulesSerialSingletons(t *testing.T) {
	sc := snapScenario{name: "faults", mode: core.StashE2E, load: 0.25,
		fault: &fault.Plan{Seed: 9, LinkDropRate: 1e-3,
			StashFailures: []fault.StashFail{{Switch: 0, Port: 0, At: 2600}}}}
	const total, ckptAt = 4000, 2500 // checkpoint before the scheduled failure

	golden := buildSnapNet(t, snapConfig("tiny", sc), sc)
	defer golden.Close()
	runSnapNet(golden, 4, 0, total)

	src := buildSnapNet(t, snapConfig("tiny", sc), sc)
	defer src.Close()
	var snap []byte
	src.ScheduleCheckpoint(ckptAt, func(now sim.Tick) { snap = src.Checkpoint(now) })
	runSnapNet(src, 4, 0, total)
	if snap == nil {
		t.Fatal("checkpoint hook never fired")
	}

	rn := buildSnapNet(t, snapConfig("tiny", sc), sc)
	defer rn.Close()
	if err := rn.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	runSnapNet(rn, 1, 1, total)

	if g, r := Observed[*metrics.Sampler](golden).CSV(), Observed[*metrics.Sampler](rn).CSV(); g != r {
		t.Errorf("sampler rows diverged after restore:\n--- straight-through ---\n%s--- restored ---\n%s", g, r)
	}
	if g, r := Observed[*core.Invariants](golden).Checks, Observed[*core.Invariants](rn).Checks; g != r {
		t.Errorf("invariant audit count diverged: straight-through %d, restored %d", g, r)
	}
	if g, r := Observed[*metrics.Watchdog](golden).NextEventAt(int64(total)), Observed[*metrics.Watchdog](rn).NextEventAt(int64(total)); g != r {
		t.Errorf("watchdog window clock diverged: next event at %d vs %d", g, r)
	}
	if g, r := Observed[*metrics.Watchdog](golden).Stalls, Observed[*metrics.Watchdog](rn).Stalls; g != r {
		t.Errorf("watchdog stall count diverged: %d vs %d", g, r)
	}
	if g, r := golden.FaultStats(), rn.FaultStats(); g != r {
		t.Errorf("fault statistics diverged (stash failure re-fired or skipped): %+v vs %+v", g, r)
	}
	if g, r := golden.Counters(), rn.Counters(); g != r {
		t.Errorf("counters diverged: %+v vs %+v", g, r)
	}
}

// TestFlightRowsAfterRestore: a flight recorder on a restored network
// starts from that network's counts, not from zero. Its first row, at the
// first multiple of the interval after the restored cycle, has all-zero
// deltas — it used to report every delivery and stash store since cycle 0
// as that one interval's — and every row after it equals the straight
// run's row of the same cycle.
func TestFlightRowsAfterRestore(t *testing.T) {
	sc := snapScenario{name: "e2e", mode: core.StashE2E, load: 0.3}
	const total, ckptAt = 4000, 3000

	straight := buildSnapNet(t, snapConfig("tiny", sc), sc)
	defer straight.Close()
	want := NewFlightRecorder(straight, 64)
	straight.Observe(want)
	var snap []byte
	straight.ScheduleCheckpoint(ckptAt, func(now sim.Tick) { snap = straight.Checkpoint(now) })
	straight.Run(total)

	rn := buildSnapNet(t, snapConfig("tiny", sc), sc)
	defer rn.Close()
	got := NewFlightRecorder(rn, 64)
	rn.Observe(got)
	if err := rn.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	rn.Run(total - ckptAt)

	straightAt := map[int64][]int64{}
	for _, row := range want.Snapshot(0) {
		straightAt[row[0]] = row
	}
	rows := got.Snapshot(0)
	if len(rows) != (total-3008)/metrics.FlightInterval+1 || rows[0][0] != 3008 {
		t.Fatalf("restored recorder has %d rows from cycle %d, want one every 64 cycles from 3008", len(rows), rows[0][0])
	}
	first, w := rows[0], straightAt[3008]
	if !slices.Equal(first[1:5], []int64{0, 0, 0, 0}) || !slices.Equal(first[5:], w[5:]) || w[1] == 0 || w[2] == 0 {
		t.Fatalf("first row after the restore %v, want zero deltas and the straight run's gauges (straight row %v)", first, w)
	}
	for _, row := range rows[1:] {
		if w := straightAt[row[0]]; !slices.Equal(row, w) {
			t.Fatalf("restored row %v, straight run's %v", row, w)
		}
	}
}

// TestRestoreRebuildsBookkeeping holds Restore to the run whose queues it
// replays. A checkpoint carries the queues alone, and decoding rebuilds
// every count and mask kept beside them — DAMQ and output-buffer
// accounting, tile and column occupancy, the four activity masks, the
// endpoints' backlogs — by pushing each entry again. Each checkpoint here
// is restored into a fresh network and compared with the live one through
// the exported probes: right after restore, and again after both run one
// more cycle, when NextWake is comparable too (a restored network's due
// slots and announced arrivals are zero until its first step). A mask bit
// the rebuild misses leaves a port unstepped, and one it sets too many
// shows as an early wake once the network has drained.
func TestRestoreRebuildsBookkeeping(t *testing.T) {
	parity := snapScenarios(1337)[1] // drops, parity k=4, bank failures at 1334 and 1737
	runs := []struct {
		name    string
		workers int
		build   func() *Network
	}{
		{"e2e-parity-faults", 4, func() *Network { return buildSnapNet(t, snapConfig("tiny", parity), parity) }},
		{"congestion-ecn-hotspots", 1, func() *Network { return buildHotspot(t, core.StashCongestion, 500) }},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			live := r.build()
			defer live.Close()
			live.SetWorkers(r.workers)
			for _, at := range []int64{1100, 1337, 2500} {
				live.Run(at - int64(live.Now))
				compareRestored(t, live, r.build(), r.workers)
			}
			for _, ep := range live.Endpoints {
				ep.Gen = nil
			}
			if !live.Drain(500000) {
				t.Fatal("the network did not drain")
			}
			compareRestored(t, live, r.build(), r.workers)
		})
	}
}

// compareRestored restores a checkpoint of live into fresh, built like it,
// and requires the probes of the two to agree, then runs both one cycle
// and requires it again, wake-ups included.
func compareRestored(t *testing.T, live, fresh *Network, workers int) {
	t.Helper()
	defer fresh.Close()
	for i, ep := range live.Endpoints {
		if ep.Gen == nil {
			fresh.Endpoints[i].Gen = nil
		}
	}
	if err := fresh.Restore(live.Checkpoint(live.Now)); err != nil {
		t.Fatalf("Restore at cycle %d: %v", live.Now, err)
	}
	if a, b := probes(live, false), probes(fresh, false); a != b {
		t.Fatalf("restored at cycle %d, the probes disagree: %s", live.Now, firstDiff(a, b))
	}
	fresh.SetWorkers(workers)
	live.Run(1)
	fresh.Run(1)
	if a, b := probes(live, true), probes(fresh, true); a != b {
		t.Fatalf("one cycle after a restore at cycle %d, the probes disagree: %s", live.Now-1, firstDiff(a, b))
	}
}

// probes renders what the exported probes read off a network: each
// switch's activity, buffer fill, output queues and state dump, each
// endpoint's backlog and, with wake, when each component next steps.
func probes(n *Network, wake bool) string {
	var b strings.Builder
	for _, s := range n.Switches {
		in, inCap, out, outCap := s.BufferFill()
		fmt.Fprintf(&b, "sw%d busy=%v fill=%d/%d %d/%d queues=", s.ID, s.Busy(), in, inCap, out, outCap)
		for p := 0; p < n.Cfg.Topo.Radix(); p++ {
			fmt.Fprintf(&b, "%d,", s.OutputQueue(p))
		}
		if wake {
			fmt.Fprintf(&b, " wake=%d", s.NextWake(n.Now))
		}
		fmt.Fprintf(&b, "\n%s", s.DumpState())
	}
	for _, ep := range n.Endpoints {
		fmt.Fprintf(&b, "ep%d queued=%d", ep.ID, ep.QueuedFlits())
		if wake {
			fmt.Fprintf(&b, " wake=%d", ep.NextWake(n.Now))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// firstDiff names the first line where the live probes (a) and the
// restored ones (b) part.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			got := "(none)"
			if i < len(lb) {
				got = lb[i]
			}
			return fmt.Sprintf("line %d\n live:     %s\n restored: %s", i+1, la[i], got)
		}
	}
	return fmt.Sprintf("the restored probes have %d more lines", len(lb)-len(la))
}
