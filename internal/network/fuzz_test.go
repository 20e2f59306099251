package network

import (
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/snapshot"
	"stashsim/internal/topo"
	"stashsim/internal/traffic"
)

// microSnapConfig is the smallest network worth fuzzing against: a
// 3-group, 6-switch, 6-endpoint dragonfly in e2e mode with drops and
// retry timers, so a checkpoint of it exercises every section kind
// (links, switches, stash, tracking, endpoints, injector, collectors)
// while staying a few tens of kilobytes.
func microSnapConfig() *core.Config {
	cfg := core.TinyConfig()
	cfg.Topo = topo.Dragonfly{P: 1, A: 2, H: 1}
	cfg.Rows, cfg.Cols, cfg.TileIn, cfg.TileOut = 2, 2, 2, 2
	cfg.Mode = core.StashE2E
	cfg.Fault = &fault.Plan{Seed: 5, LinkDropRate: 1e-2,
		StashFailures: []fault.StashFail{{Switch: 0, Port: 0, At: 150}}}
	cfg.Retrans = core.DefaultRetrans()
	cfg.RetainPayload = true
	return cfg
}

// microSnapNet builds the fuzz target network; every call produces an
// identically configured fresh instance.
func microSnapNet(t testing.TB) *Network { return microNet(t, microSnapConfig(), 0.4) }

// microNet builds a micro network for the given configuration, wired like
// the fuzz target with uniform traffic at the given load. The load is not
// state: a checkpoint restores into a micro network of any load.
func microNet(t testing.TB, cfg *core.Config, load float64) *Network {
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n.Observe(NewInvariants(n, 64))
	rng := sim.NewRNG(n.Cfg.Seed + 77)
	for _, ep := range n.Endpoints {
		ep.GenRNG = rng.Derive(uint64(ep.ID))
		ep.Gen = traffic.Uniform(ep.GenRNG, len(n.Endpoints), nil, load, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	return n
}

// microAt is the cycle of the micro snapshot.
const microAt = 200

// microSnapshot runs the micro network past its scheduled bank failure
// and returns a mid-run checkpoint, taken at cycle microAt.
func microSnapshot(t testing.TB) []byte { return checkpointAt(t, microSnapNet(t), microAt) }

// checkpointAt runs n past cycle at and returns the checkpoint taken there.
func checkpointAt(t testing.TB, n *Network, at int64) []byte {
	var snap []byte
	n.ScheduleCheckpoint(at, func(now sim.Tick) { snap = n.Checkpoint(now) })
	n.Run(at + 60)
	if snap == nil {
		t.Fatal("checkpoint hook never fired")
	}
	return snap
}

// FuzzSnapshotDecode feeds arbitrary bytes to Network.Restore: hostile
// input must produce a clean error or a fully consistent restore — never
// a panic, and never an allocation driven past the input size (the
// codec's Count guard). When a mutated snapshot is accepted, the restored
// state must itself checkpoint and restore cleanly, and run 64 cycles
// without a Go runtime error.
func FuzzSnapshotDecode(f *testing.F) {
	valid := microSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-body
	f.Add(valid[:14])           // header only
	f.Add([]byte{})             // empty
	f.Add([]byte("STAS happens to start like a snapshot"))
	skew := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(skew[4:], snapshot.Version+1)
	f.Add(skew) // version skew
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(huge[6:], 1<<62)
	f.Add(huge) // hostile declared length
	for _, h := range hostileSections(f, valid, 2) {
		f.Add(h.data) // a section length past the end or zero, a walk past its section or short of its end
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		n := microSnapNet(t)
		defer n.Close()
		if err := n.Restore(data); err != nil {
			return
		}
		// Accepted: the restored state must be internally consistent
		// enough to round-trip through the codec again, and to step: it
		// may stop on one of the simulator's own diagnostics, never on an
		// index panic (see TestRestoreMutationSweep).
		ck := n.Checkpoint(n.Now)
		n2 := microSnapNet(t)
		defer n2.Close()
		if err := n2.Restore(ck); err != nil {
			t.Fatalf("re-checkpoint of an accepted restore failed to decode: %v", err)
		}
		Observed[*core.Invariants](n).Out = io.Discard
		if msg, isRuntime := runAccepted(n, 64); isRuntime {
			t.Fatalf("accepted restore hit a runtime error within 64 cycles: %s", msg)
		}
	})
}

// TestWriteSnapshotFuzzCorpus regenerates the checked-in seed corpus for
// FuzzSnapshotDecode. It is a maintenance tool, not a test: run with
// WRITE_SNAPSHOT_CORPUS=1 after a format change to refresh testdata.
func TestWriteSnapshotFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_SNAPSHOT_CORPUS") == "" {
		t.Skip("set WRITE_SNAPSHOT_CORPUS=1 to regenerate the seed corpus")
	}
	valid := microSnapshot(t)
	skew := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(skew[4:], snapshot.Version+1)
	seeds := [][]byte{
		valid,
		valid[:len(valid)/2],
		valid[:14],
		skew,
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
		name := filepath.Join(dir, "seed"+strconv.Itoa(i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", name, len(s))
	}
}
