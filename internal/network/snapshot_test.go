package network

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/metrics"
	"stashsim/internal/sim"
	"stashsim/internal/topo"
)

// watchedNet is loadedNet on tiny with the table's observer set attached,
// so a checkpoint covers the observers' state too.
func watchedNet(t testing.TB, regime string) *Network {
	t.Helper()
	n := loadedNet(t, "tiny", regime)
	watch(n, io.Discard)
	return n
}

// TestCheckpointRoundTrip: Checkpoint -> Restore -> Checkpoint produces
// identical bytes, and a checkpoint of the same cycle is byte-identical
// whether taken with one partition or four (the partition-canonical link
// encoding).
func TestCheckpointRoundTrip(t *testing.T) {
	const ckptAt = 1111

	take := func(workers int, cap int64) []byte {
		n := watchedNet(t, "faults-parity")
		defer n.Close()
		var snap []byte
		n.ScheduleCheckpoint(ckptAt, func(now sim.Tick) { snap = n.Checkpoint(now) })
		n.SetWorkers(workers)
		if cap > 0 {
			n.Observe(every{k: cap})
		}
		n.Run(ckptAt + 1)
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

	rn := watchedNet(t, "faults-parity")
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
	reg := regimeNamed("faults-parity")
	src := watchedNet(t, reg.name)
	defer src.Close()
	var snap []byte
	src.ScheduleCheckpoint(500, func(now sim.Tick) { snap = src.Checkpoint(now) })
	src.Observe(every{k: 1})
	src.Run(600)
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
		// Parity groups need end-to-end stashing, so they go with it.
		{"mode", func(c *core.Config) { c.Mode, c.ECN, c.StashParity = core.StashCongestion, core.DefaultECN(), 0 }},
		{"seed", func(c *core.Config) { c.Seed++ }},
		{"capfrac", func(c *core.Config) { c.StashCapFrac = 0.5 }},
		{"parity", func(c *core.Config) { c.StashParity = 0 }},
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
			cfg := reg.config("tiny")
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
			n.Observe(NewInvariants(n, auditEvery(n)))
			n.EnableMetrics(metrics.NewRegistry())
			n.Observe(NewSampler(n, 97))
		}},
		{"observer-extra", func(n *Network) {
			watch(n, io.Discard)
			n.Observe(NewSampler(n, 500))
		}},
		{"observer-swapped", func(n *Network) {
			n.Observe(NewInvariants(n, auditEvery(n)))
			n.EnableMetrics(metrics.NewRegistry())
			n.Observe(NewWatchdog(n, 1000, io.Discard, nil))
			n.Observe(NewSampler(n, 97))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := loadedNet(t, "tiny", reg.name)
			defer n.Close()
			c.attach(n)
			err := n.Restore(snap)
			if err == nil || !strings.Contains(err.Error(), "identical observability flags") {
				t.Fatalf("observer mismatch not rejected loudly: %v", err)
			}
		})
	}

	t.Run("stepped-network", func(t *testing.T) {
		n := watchedNet(t, reg.name)
		defer n.Close()
		n.Run(10)
		if err := n.Restore(snap); err == nil ||
			!strings.Contains(err.Error(), "freshly built") {
			t.Fatalf("stepped network not rejected: %v", err)
		}
	})
}

// TestFlightRowsAfterRestore: a flight recorder on a restored network
// starts from that network's counts, not from zero. Its first row, at the
// first multiple of the interval after the restored cycle, has all-zero
// deltas — it used to report every delivery and stash store since cycle 0
// as that one interval's — and every row after it equals the straight
// run's row of the same cycle.
func TestFlightRowsAfterRestore(t *testing.T) {
	const total, ckptAt = 4000, 3000

	straight := watchedNet(t, "e2e")
	defer straight.Close()
	want := NewFlightRecorder(straight, 64)
	straight.Observe(want)
	var snap []byte
	straight.ScheduleCheckpoint(ckptAt, func(now sim.Tick) { snap = straight.Checkpoint(now) })
	straight.Run(total)

	rn := watchedNet(t, "e2e")
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
	runs := []struct {
		name    string
		workers int
		build   func() *Network
	}{
		{"e2e-parity-faults", 4, func() *Network { return watchedNet(t, "faults-parity") }}, // bank failures at 1334, 1335 and 1737
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
