package network

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"testing"

	"stashsim/internal/metrics"
	"stashsim/internal/proto"
)

// The cut into blocks and what stepping block by block promises beyond
// the machine state, which the differential table (equiv_test.go) holds to
// the reference.

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
		n := loadedNet(t, "small", "e2e")
		tr := metrics.NewTracer(1 << 20)
		n.EnableTracing(tr)
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
