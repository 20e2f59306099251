package network

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/metrics"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/snapshot"
	"stashsim/internal/topo"
	"stashsim/internal/traffic"
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

// TestRestoreSectionsOwnTheirPools: Restore decodes the groups' sections
// on GOMAXPROCS workers, so a section's walk must touch only what its own
// group's pools hold. A small network with parity groups, caught while
// two failed banks are being rebuilt, is restored with one worker and with
// four: both must checkpoint back to the bytes and digest of the source,
// and hold every invariant, the pool audit (law 6) included, right after
// the restore. Under the race detector a section that pushed into another
// group's pool would show up as a race in the four-worker restore.
func TestRestoreSectionsOwnTheirPools(t *testing.T) {
	src := loadedNet(t, "small", "faults-parity")
	defer src.Close()
	var ck []byte
	var digest uint64
	src.ScheduleCheckpoint(handAt, func(now sim.Tick) { ck, digest = src.Checkpoint(now), src.StateDigest() })
	src.SetWorkers(2)
	src.Run(handAt + 1)
	if ck == nil {
		t.Fatal("checkpoint hook never fired")
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			n := loadedNet(t, "small", "faults-parity")
			defer n.Close()
			if err := n.Restore(ck); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			NewInvariants(n, 1).AtBarrier(int64(n.Now))
			if got := n.StateDigest(); got != digest {
				t.Fatalf("restored digest %#x, the source's %#x", got, digest)
			}
			if again := n.Checkpoint(n.Now); !bytes.Equal(again, ck) {
				t.Fatalf("re-checkpoint differs from the restored bytes (%d vs %d)", len(again), len(ck))
			}
		})
	}
}

// sectionPrefixes returns the offsets of the length prefixes of a
// snapshot's group sections, in group order: they follow their varint
// count, and the first section opens with its first switch's tag.
func sectionPrefixes(t testing.TB, data []byte) []int {
	t.Helper()
	first := bytes.Index(data, []byte("SWCH")) - 4
	if first < 8 {
		t.Fatal("no switch section in the snapshot")
	}
	count := first - 1 // the count's last byte; the bytes before it in the count have the top bit set
	for data[count-1]&0x80 != 0 {
		count--
	}
	n, _ := binary.Uvarint(data[count:first])
	at := make([]int, 0, n)
	for off := first; len(at) < int(n); off += 4 + int(binary.LittleEndian.Uint32(data[off:])) {
		at = append(at, off)
	}
	return at
}

// hostileSection is a snapshot damaged in one group's section, and what
// Restore's error must say: the group and the absolute offset where the
// decode stopped.
type hostileSection struct {
	name string
	data []byte
	want []string
}

// hostileSections damages group g's section of valid:
//   - past-end, zero: a length that runs past the end of the input, and a
//     zero length;
//   - reads-past: the section cut inside its last varint of more than one
//     byte (an endpoint's count), so that its walk reads past its end;
//   - leaves-unread: three bytes too many, which its walk leaves unread;
//   - overlong-count: a link's flit count written with a redundant byte;
//   - overflow-count: that count as a ten-byte varint past 64 bits;
//   - inflated-count: that count raised to 127, which the bytes left can
//     hold at one byte an element, so the walk reserves 127 entries and
//     then reads flits from what follows;
//   - follower-first: the first flit of a link made to continue a packet;
//   - backwards-due: the second deadline of an output buffer's retention
//     window made to come before the first;
//   - repeated-due, over-span-due: that deadline made equal to the first,
//     and made 2^20 cycles later than it, more than any port's round trip:
//     a port sends at most once a cycle and holds a flit's space for one
//     round trip, so its window can hold neither;
//   - future-due: the first deadline of that window made 2^20 cycles
//     later, so that it comes due more than a round trip after the
//     checkpoint cycle, later than any send before it makes one due, and
//     the port's next send could not follow it.
//
// Every damage but the first two keeps the chain of lengths and the
// header's total length right, so only the walk can notice.
func hostileSections(t testing.TB, valid []byte, g int) []hostileSection {
	t.Helper()
	at := sectionPrefixes(t, valid)[g]
	size := int(binary.LittleEndian.Uint32(valid[at:]))
	end := at + 4 + size // the section's last byte is end-1
	body := valid[:end]
	withLen := func(data []byte, n int) []byte {
		binary.LittleEndian.PutUint32(data[at:], uint32(n))
		binary.LittleEndian.PutUint64(data[6:], uint64(len(data)))
		return data
	}
	// splice replaces the n bytes at off, inside the section, with b.
	splice := func(off, n int, b ...byte) []byte {
		d := append(append(slices.Clip(valid[:off]), b...), valid[off+n:]...)
		return withLen(d, size+len(b)-n)
	}
	set := func(off int, b byte) []byte {
		d := slices.Clone(valid)
		d[off] = b
		return d
	}
	sec := func(end int) string { return fmt.Sprintf("in group %d's section, bytes %d to %d", g, at+4, end) }
	varintLen := func(off int) int {
		n := 1
		for body[off+n-1]&0x80 != 0 {
			n++
		}
		return n
	}
	// tagAt returns the offset of the first tag in the section after off.
	tagAt := func(tag string, off int) int {
		i := bytes.Index(body[off:], []byte(tag))
		if i < 0 {
			t.Fatalf("group %d's section has no %s tag after offset %d", g, tag, off)
		}
		return off + i
	}

	cut := end - 1 // the last byte of a varint of more than one byte is followed by its end
	for body[cut-1]&0x80 == 0 {
		cut--
	}
	v := cut - 1 // where that varint starts
	for body[v-1]&0x80 != 0 {
		v--
	}
	link := tagAt("LINK", at+4) + 4 // the count of its flits
	for body[link] == 0 {
		link = tagAt("LINK", link) + 4
	}
	flit := link + 1 + varintLen(link+1)  // the first flit's tag, after its deadline
	window := tagAt("OUTB", at+4) + 4 + 1 // the retention window's count, after the VC count
	for body[window] < 2 {
		window = tagAt("OUTB", window) + 4 + 1
	}
	second := window + 1 + varintLen(window+1)
	far := binary.AppendUvarint(nil, 1<<21) // a due distance of 2^20, zigzagged
	first, _ := binary.Uvarint(body[window+1:])
	future := binary.AppendUvarint(nil, first+1<<21) // the first deadline, from cycle 0, 2^20 later
	return []hostileSection{
		{"past-end", withLen(slices.Clone(valid), len(valid)), []string{
			fmt.Sprintf("group %d: section length %d at offset %d runs past the end", g, len(valid), at)}},
		{"zero", withLen(slices.Clone(valid), 0), []string{
			fmt.Sprintf("group %d: section length 0 at offset %d", g, at)}},
		{"reads-past", splice(cut, end-cut), []string{
			fmt.Sprintf("truncated: varint at offset %d runs past the end", v), sec(cut)}},
		{"leaves-unread", splice(end, 0, 0, 0, 0), []string{fmt.Sprintf("3 trailing bytes at offset %d", end), sec(end + 3)}},
		{"overlong-count", splice(link, 1, body[link]|0x80, 0), []string{
			fmt.Sprintf("non-minimal varint at offset %d", link), sec(end + 1)}},
		{"overflow-count", splice(link, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02), []string{
			fmt.Sprintf("varint at offset %d overflows 64 bits", link), sec(end + 9)}},
		{"inflated-count", set(link, 0x7F), []string{sec(end)}},
		{"follower-first", set(flit, body[flit]&^1), []string{
			fmt.Sprintf("flit at offset %d continues a packet, but no flit comes before it", flit), sec(end)}},
		{"backwards-due", set(second, body[second]|1), []string{
			fmt.Sprintf("at offset %d puts its path out of order", second), sec(end)}},
		{"repeated-due", set(second, 0), []string{
			fmt.Sprintf("at offset %d does not fit the retention window", second), sec(end)}},
		{"over-span-due", splice(second, varintLen(second), far...), []string{
			fmt.Sprintf("at offset %d does not fit the retention window", second), sec(end + len(far) - varintLen(second))}},
		{"future-due", splice(window+1, varintLen(window+1), future...), []string{
			fmt.Sprintf("at offset %d is due %d cycles after the checkpoint cycle", window+1, int64(first/2)+1<<20-microAt), sec(end + len(future) - varintLen(window+1))}},
	}
}

// TestRestoreRejectsHostileSections: a damaged section length, a section
// whose walk does not end at its last byte, and a section holding a
// malformed varint, flit or deadline fail Restore naming the group and
// the offset, without a panic and within an allocation bound stated from
// the input. A count is checked against the bytes left at one byte an
// element, the fewest any element takes, so a damaged count can make the
// restore reserve one pool slot (64 bytes, a flit's) for every byte of its
// section: a damaged restore allocates no more than a valid one does,
// plus that, plus the error itself.
func TestRestoreRejectsHostileSections(t *testing.T) {
	valid := microSnapshot(t)
	allocs := func(data []byte) (uint64, error) {
		n := microSnapNet(t)
		defer n.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := n.Restore(data)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	bound, err := allocs(valid)
	if err != nil {
		t.Fatalf("Restore of the valid snapshot: %v", err)
	}
	const slotBytes = 64
	prefixes := sectionPrefixes(t, valid)
	// The sections holding switches 0 and 3: the first group's and a
	// middle one's.
	for _, sw := range []int{0, 3} {
		g := microSnapConfig().Topo.Group(sw)
		reserve := slotBytes * uint64(binary.LittleEndian.Uint32(valid[prefixes[g]:]))
		for _, tc := range hostileSections(t, valid, g) {
			t.Run(fmt.Sprintf("sw%d/%s", sw, tc.name), func(t *testing.T) {
				alloc, err := allocs(tc.data)
				if err == nil {
					t.Fatal("Restore accepted the damaged section")
				}
				for _, w := range tc.want {
					if !strings.Contains(err.Error(), w) {
						t.Errorf("error %q does not say %q", err, w)
					}
				}
				if alloc > bound+reserve+4<<10 {
					t.Errorf("the damaged restore allocated %d bytes, a valid one %d, and the section could reserve %d", alloc, bound, reserve)
				}
			})
		}
	}
}

// TestCheckpointBytesPinned pins the bytes of one checkpoint: a tiny e2e
// network with parity groups of four, link drops and one bank failure,
// stepped by four workers and checkpointed 20 cycles after the failure,
// while the failed bank's copy is being rebuilt and the stash holds
// retained payloads. A change to any walk, to the codec or to the config
// fingerprint moves these bytes: it must bump snapshot.Version and re-pin
// both numbers, or explain why the bytes moved at the same version.
func TestCheckpointBytesPinned(t *testing.T) {
	const (
		version = 8
		length  = 140704
		sum     = 0x2b8b0bc426a488f
	)
	cfg := core.TinyConfig()
	cfg.Mode = core.StashE2E
	cfg.Retrans = core.DefaultRetrans()
	cfg.RetainPayload = true
	cfg.StashParity = 4
	cfg.Fault = &fault.Plan{Seed: 11, LinkDropRate: 2e-3,
		StashFailures: []fault.StashFail{{Switch: 1, Port: 0, At: 1500}}}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	rng := sim.NewRNG(cfg.Seed + 77)
	for _, ep := range n.Endpoints {
		gen := rng.Derive(uint64(ep.ID))
		ep.GenRNG = gen
		ep.Gen = traffic.Uniform(gen, len(n.Endpoints), nil, 0.3, n.ChannelRate(), proto.MaxPacketFlits, proto.ClassDefault, 0)
	}
	n.SetWorkers(4)
	var snap []byte
	n.ScheduleCheckpoint(1520, func(now sim.Tick) {
		if n.Switches[1].PendingReconstructions() == 0 || n.TotalStashUsed() == 0 {
			t.Errorf("cycle %d: %d rebuilds pending, %d stash flits resident; the pin wants both",
				now, n.Switches[1].PendingReconstructions(), n.TotalStashUsed())
		}
		snap = n.Checkpoint(now)
	})
	n.Run(1521)
	if snap == nil {
		t.Fatal("checkpoint hook never fired")
	}
	got := crc64.Checksum(snap, crc64.MakeTable(crc64.ECMA))
	if snapshot.Version != version || len(snap) != length || got != sum {
		t.Fatalf("checkpoint is %d bytes, crc64 %#x, at snapshot.Version %d; pinned %d bytes, %#x, at version %d",
			len(snap), got, snapshot.Version, length, uint64(sum), version)
	}
}
