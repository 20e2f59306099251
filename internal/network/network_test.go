package network

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"stashsim/internal/buffer"
	"stashsim/internal/core"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/traffic"
)

// runUR builds a tiny network in the given mode and runs uniform traffic,
// returning it for inspection.
func runUR(t *testing.T, mode core.StashMode, load float64, cycles int64) *Network {
	t.Helper()
	n := buildUR(t, mode, load)
	n.Run(cycles)
	if err := n.SanityCheck(); err != nil {
		t.Fatalf("sanity: %v", err)
	}
	return n
}

// buildUR is runUR's network before it runs.
func buildUR(t *testing.T, mode core.StashMode, load float64) *Network {
	t.Helper()
	cfg := core.TinyConfig()
	cfg.Mode = mode
	if mode == core.StashCongestion {
		cfg.ECN = core.DefaultECN()
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n.Observe(NewInvariants(n, 16))
	rng := sim.NewRNG(42)
	rate := n.ChannelRate()
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			load, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	return n
}

func TestBaselineDeliversUniformTraffic(t *testing.T) {
	n := runUR(t, core.StashOff, 0.2, 20000)
	c := n.Collector()
	if c.DeliveredPkts[proto.ClassDefault] == 0 {
		t.Fatal("no packets delivered")
	}
	// At 20% load the network is far from saturation: nearly everything
	// offered should be delivered (modulo in-flight tail).
	del := c.TotalDeliveredFlits()
	off := c.TotalOfferedFlits()
	if float64(del) < 0.9*float64(off) {
		t.Fatalf("delivered %d of %d offered flits", del, off)
	}
	// Latency must be at least the minimum channel traversal.
	if c.LatAcc[proto.ClassDefault].Min < float64(2*n.Cfg.Lat.Endpoint) {
		t.Fatalf("implausibly low min latency %.0f", c.LatAcc[proto.ClassDefault].Min)
	}
}

func TestE2EStashTracksOutstandingPackets(t *testing.T) {
	n := runUR(t, core.StashE2E, 0.2, 20000)
	cnt := n.Counters()
	if cnt.E2ETracked == 0 {
		t.Fatal("no packets tracked")
	}
	if cnt.StashStores == 0 {
		t.Fatal("no flits stashed")
	}
	if cnt.E2EDeletes == 0 {
		t.Fatal("no stash copies deleted by ACKs")
	}
	// Tracked entries should be created for every delivered data packet
	// (all injections come from end ports).
	if cnt.E2ETracked < n.Collector().DeliveredPkts[proto.ClassDefault] {
		t.Fatalf("tracked %d < delivered %d", cnt.E2ETracked, n.Collector().DeliveredPkts[proto.ClassDefault])
	}
}

func TestE2EStashDrainsWhenTrafficStops(t *testing.T) {
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	rate := n.ChannelRate()
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			0.3, rate, proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	n.Run(5000)
	for _, ep := range n.Endpoints {
		ep.Gen = nil
	}
	// After the network drains, every stash copy must have been deleted
	// and no tracking entries may remain.
	ok := n.RunUntil(200000, 1000, func() bool {
		if n.TotalStashUsed() != 0 {
			return false
		}
		for _, s := range n.Switches {
			if s.TrackedPackets() != 0 {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatalf("stash did not drain: %d flits committed, counters %+v",
			n.TotalStashUsed(), n.Counters())
	}
}

// TestDeterminism: the same configuration run twice is the same run.
func TestDeterminism(t *testing.T) {
	run := func() *wakeObs {
		n := buildUR(t, core.StashE2E, 0.25)
		o := observe(n)
		n.Run(8000)
		return o.finish(n)
	}
	run().mustEqual(t, run())
}

// TestNewAllocations pins what building a network costs the allocator. A
// switch carves each per-port and per-tile slice kind, its tile
// allocators' slices and its stash pools from one backing array apiece,
// its buffers hold their per-VC state in place, a stash pool keeps no
// per-packet map, and its queues take no storage until a flit arrives;
// the links are built in one allocation. Before the first of these,
// New(SmallConfig()) made 61 026 allocations; before the links were, 6 538.
//
// The count is taken with the collector off. The allocation count reads
// every heap object the process allocates, the runtime's own too, and a
// collection that ends while New runs can add one or two: the sudog a
// goroutine's GC assist takes to wait for mark termination. The detector
// makes such collections more frequent, so under -race the count read up
// to 4 943; with the collector off it is 4 940 in both builds.
func TestNewAllocations(t *testing.T) {
	const pinned = 4940
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := testing.AllocsPerRun(3, func() {
		if _, err := New(core.SmallConfig()); err != nil {
			t.Fatal(err)
		}
	})
	if n > pinned {
		t.Fatalf("New(SmallConfig()) makes %.0f allocations, more than the %d pinned", n, pinned)
	}
	t.Logf("New(SmallConfig()): %.0f allocations (%d pinned, 61 026 before slices were carved)", n, pinned)
}

// TestNewBytes bounds what building the paper network allocates. Its
// switches hold 948 640 queue headers; as 40-byte rings they made
// New(PaperConfig()) allocate 75.8 MB, as 12-byte index lists into each
// switch's flit pool 47.9 MB, and with its 15 400 links built in one
// allocation, their paths index lists into the switches' pools, 47.5 MB.
// With wormhole locks as bits of a VC mask, a credit path's header without
// its coalescing mirror, and arbiter pointers and buffer counts as narrow
// as their bounds, it allocates 34.6 MB, and with a link's staging slabs
// behind a pointer that only worker-crossing links set (248 bytes a link
// before, 152 after), 32.9 MB. The bound keeps the 4.1 MB margin the
// 47.9 MB figure had.
func TestNewBytes(t *testing.T) {
	const bound = 37.0e6
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := New(core.PaperConfig()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc - before.TotalAlloc)
	if got > bound {
		t.Fatalf("New(PaperConfig()) allocates %.1f MB, more than the %.1f MB bound", got/1e6, bound/1e6)
	}
	t.Logf("New(PaperConfig()): %.1f MB allocated", got/1e6)
}

// TestSwitchStorageTracksResidency: a group's storage follows what it has
// held, not the time it has run, on one worker and on two. On a warm small
// network under 30 % uniform load with end-to-end stashing, every group's
// flit pool and credit pool — shared by its switches, its endpoints, the
// link paths they own and, on two workers, the entries they stage towards
// the other worker's groups — is at most its high-water mark rounded up to
// one chunk, at the end of the warm-up and again 6 500 cycles later; and
// between the two the network's summed storage grows by no more than its
// pools' summed high-water marks do, rounding aside: the wire's storage no
// longer grows with simulated time.
//
// And staging costs a worker-crossing link only pool slots: after the run,
// the two-worker network's live heap exceeds the one-worker network's by
// at most stagedHeapBound. Measured: 7.1 MB more while each crossing link
// staged in slabs of its own, 1.1 MB with the stages in the pools.
func TestSwitchStorageTracksResidency(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the small network for 9 100 cycles on one worker and on two")
	}
	const stagedHeapBound = 3_000_000
	var live [2]uint64
	for k, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) { live[k] = storageTracksResidency(t, workers) })
	}
	if live[0] == 0 || live[1] == 0 {
		return
	}
	grew := int64(live[1]) - int64(live[0])
	if grew > stagedHeapBound {
		t.Errorf("two workers hold %.1f MB more live heap than one, more than the %.1f MB bound", float64(grew)/1e6, float64(stagedHeapBound)/1e6)
	}
	t.Logf("live heap: %.1f MB on one worker, %.1f MB on two (%+.1f MB)", float64(live[0])/1e6, float64(live[1])/1e6, float64(grew)/1e6)
}

// storageTracksResidency is one row of TestSwitchStorageTracksResidency.
// It returns the live heap after the run, the network still held.
func storageTracksResidency(t *testing.T, workers int) uint64 {
	cfg := core.SmallConfig()
	cfg.Mode = core.StashE2E
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.SetWorkers(workers)
	defer n.Close()
	rng := sim.NewRNG(7)
	for _, ep := range n.Endpoints {
		ep.Gen = traffic.Uniform(rng.Derive(uint64(ep.ID)), len(n.Endpoints), nil,
			0.3, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	type pool interface {
		Cap() int
		Peak() int
	}
	groups := cfg.Topo.Groups()
	var held, peak [2]int
	for k, until := range []int64{2600, 9100} {
		n.Run(until - int64(n.Now))
		flits, credits := 0, 0
		for g := 0; g < groups; g++ {
			s := n.Switches[g*cfg.Topo.A]
			for _, p := range []struct {
				kind string
				pool pool
			}{{"flit", s.FlitPool()}, {"credit", s.CreditPool()}} {
				roundUp := (p.pool.Peak() + buffer.PoolChunk - 1) / buffer.PoolChunk * buffer.PoolChunk
				if p.pool.Cap() > roundUp {
					t.Errorf("cycle %d: group %d holds %d %s slots for a high-water mark of %d",
						until, g, p.pool.Cap(), p.kind, p.pool.Peak())
				}
				held[k] += p.pool.Cap()
				peak[k] += p.pool.Peak()
			}
			flits += s.FlitPool().Cap()
			credits += s.CreditPool().Cap()
		}
		if flits == 0 || credits == 0 {
			t.Fatalf("cycle %d: %d flit and %d credit slots under load", until, flits, credits)
		}
		t.Logf("cycle %d: %d flit and %d credit slots across %d groups", until, flits, credits, groups)
	}
	if grew, slack := held[1]-held[0], peak[1]-peak[0]+2*groups*(buffer.PoolChunk-1); grew > slack {
		t.Errorf("storage grew by %d slots from cycle 2 600 to 9 100, its high-water marks by %d", grew, peak[1]-peak[0])
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(n)
	return ms.HeapAlloc
}
