package network

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/proto"
	"stashsim/internal/snapshot"
)

// TestSeedCorpusIsCurrent pins the snapshot format across commits: the
// committed fuzz seed seed0 is a checkpoint of the micro network written
// by an earlier build, and today's build must produce it byte for byte. A
// deliberate format change regenerates the corpus (see
// TestWriteSnapshotFuzzCorpus) and bumps snapshot.Version.
func TestSeedCorpusIsCurrent(t *testing.T) {
	seed := committedSeed(t)
	got := microSnapshot(t)
	if !bytes.Equal(got, seed) {
		at := 0
		for at < len(got) && at < len(seed) && got[at] == seed[at] {
			at++
		}
		t.Fatalf("micro snapshot (%d bytes) differs from the committed seed0 (%d bytes) at offset %d: the format changed. "+
			"A format change bumps snapshot.Version (now %d) and regenerates the corpus: "+
			"WRITE_SNAPSHOT_CORPUS=1 go test -run TestWriteSnapshotFuzzCorpus ./internal/network",
			len(got), len(seed), at, snapshot.Version)
	}
}

// committedSeed returns the snapshot bytes of the committed seed0.
func committedSeed(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode", "seed0"))
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatal("seed0 is not a go-fuzz v1 []byte corpus entry")
	}
	seed, err := strconv.Unquote(strings.TrimSuffix(body, ")\n"))
	if err != nil {
		t.Fatalf("seed0 payload: %v", err)
	}
	return []byte(seed)
}

// TestSeedCorpusResumes is the other half of the cross-commit check: seed0
// was written at cycle 200 by an earlier build, and restored by today's it
// must carry on exactly as today's own straight-through run — through the
// retry timers and drops still in flight in it — to a byte-identical full
// state 300 cycles later.
func TestSeedCorpusResumes(t *testing.T) {
	const upto = 500
	straight := microSnapNet(t)
	straight.Run(upto)
	resumed := microSnapNet(t)
	if err := resumed.Restore(committedSeed(t)); err != nil {
		t.Fatalf("Restore of the committed seed0: %v", err)
	}
	resumed.Run(upto - int64(resumed.Now))
	if got, want := resumed.Checkpoint(resumed.Now), straight.Checkpoint(straight.Now); !bytes.Equal(got, want) {
		t.Fatalf("run resumed from the committed seed0 diverged from straight-through (%d vs %d state bytes)", len(got), len(want))
	}
}

// runAccepted steps a network whose Restore accepted possibly hostile
// bytes and reports how the run ended: "" when it completed, otherwise the
// panic, with runtime set when it was a Go runtime.Error (index out of
// range, nil dereference, ...) rather than one of the simulator's own
// panic(string) diagnostics. The restored state drives array indexes and
// shifts on the step path, so a decoded value that escaped validation
// shows up here as a runtime.Error.
func runAccepted(n *Network, cycles int64) (msg string, isRuntime bool) {
	defer func() {
		if r := recover(); r != nil {
			_, isRuntime = r.(runtime.Error)
			msg = fmt.Sprint(r)
		}
	}()
	n.Run(cycles)
	return "", false
}

// TestRestoreMutationSweep sets each byte of the micro snapshot to 0xFF in
// turn and restores the result. Restore may reject the variant, and an
// accepted one may stop on a deliberate diagnostic (an invariant
// violation: failing loudly is the contract), but no variant may reach a
// Go runtime.Error — that is a decoded index, shift or slice bound the
// walk failed to range-check — or the front of an empty queue, which is
// bookkeeping that disagrees with the queues beside it: Restore rebuilds
// every count and mask from the queues, so none can.
func TestRestoreMutationSweep(t *testing.T) {
	valid := microSnapshot(t)
	stride := 1
	if testing.Short() {
		stride = 41
	}
	accepted := 0
	loud, crashes := map[string][]int{}, map[string][]int{}
	data := make([]byte, len(valid))
	for off := 0; off < len(valid); off += stride {
		if valid[off] == 0xFF {
			continue
		}
		copy(data, valid)
		data[off] = 0xFF
		n := microSnapNet(t)
		Observed[*core.Invariants](n).Out = io.Discard // a violation dump per loud variant
		if err := n.Restore(data); err != nil {
			continue
		}
		accepted++
		msg, isRuntime := runAccepted(n, 300)
		switch {
		case isRuntime:
			crashes[msg] = append(crashes[msg], off)
		case msg != "":
			// Cycles, switch and port numbers vary; the kind does not.
			kind := digits.ReplaceAllString(msg, "N")
			loud[kind] = append(loud[kind], off)
		}
	}
	t.Logf("%d variants accepted by Restore, %d of them stopped on a deliberate diagnostic:", accepted, count(loud))
	for _, m := range sortedKeys(loud) {
		t.Logf("%6d  %s", len(loud[m]), m)
		if strings.Contains(m, "front of empty queue") {
			t.Errorf("%d variants (first at offset %d) reached the front of an empty queue: Restore let bookkeeping disagree with a queue", len(loud[m]), loud[m][0])
		}
	}
	for _, m := range sortedKeys(crashes) {
		t.Errorf("%d variants (first at offset %d): %s", len(crashes[m]), crashes[m][0], m)
	}
	if n := count(crashes); n > 0 {
		t.Errorf("%d accepted variants hit a runtime.Error within 300 cycles", n)
	}
}

var digits = regexp.MustCompile(`[0-9]+`)

// count is the number of variants filed under any message.
func count(byMsg map[string][]int) int {
	n := 0
	for _, offs := range byMsg {
		n += len(offs)
	}
	return n
}

func sortedKeys(byMsg map[string][]int) []string {
	keys := make([]string, 0, len(byMsg))
	for m := range byMsg {
		keys = append(keys, m)
	}
	sort.Strings(keys)
	return keys
}

// TestRestoreNamesOutOfRangeField is the table behind the walk's range
// checks and refusals: for every checked field, some single byte of a
// genuine snapshot set to one of the case's values must make Restore fail
// with an error that names the field. The values are tried in turn, each
// over every byte, until every field is named. 0x7F is out of range for
// every index-like field of a micro network (127 as a byte, bit 6 of a
// mask, -1's complement of nothing), and as a flit's written flags it sets
// FlagShared; 0x01 turns a queued flit's VC into another valid one; 0x00
// empties a retained payload, a histogram bucket or a send queue; 0x02
// raises the flit count of an output VC queue on a port that its
// retained and queued flits already fill, and the bytes after the queue
// read as flits enough to pass its capacity; 0x04 turns a shared flit's
// written flags into
// a reserved flit's marked ECN, so that the reserved flit after it, whose
// flags are written too, no longer repeats its prediction and lands
// third on a reserved quota of two. A flit's flags are in the stream only
// where they differ from the flit before it. Six snapshots cover the
// fields: the fuzz target's with latency histograms attached, twice (0x7F
// then 0x01, and 0x00); one with 16-flit output buffers at full load
// (0x02), where a port's retained and queued flits fill it; a parity
// configuration caught with a
// reconstruction in flight; the fuzz target's network at full load (0x01,
// 0x00 then 0x04), caught where a DAMQ VC queues a shared flit between
// reserved ones and every endpoint has packets waiting to be sent; and
// one with input buffers so small that an endpoint port's DAMQ has no
// shared pool at all, and endpoints that resend after 256 cycles, so that
// a resent flit, whose Retransmit flag is written, waits in such a DAMQ.
// (The row-buffer flit.Out check has no single-byte witness: it takes a
// pending Out and a storage VC in a stream that is neither.)
func TestRestoreNamesOutOfRangeField(t *testing.T) {
	if testing.Short() {
		t.Skip("six single-byte sweeps; adds no concurrency coverage to the race pass")
	}
	parity := microSnapConfig()
	parity.Topo.P = 3 // four stash-capable banks: a width-2 group, its parity, and a rebuild target
	parity.Rows, parity.Cols = 3, 3
	parity.StashParity = 2
	noPool := microSnapConfig()
	noPool.InputBufFlits = 48 // an endpoint port's DAMQ: 6 flits, one reserved per VC, no shared pool
	// Endpoints resend after 256 cycles, so a resent flit, whose Retransmit
	// flag the stream writes, waits in such a DAMQ at cycle 600.
	noPool.Retrans.EndpointTimeout = 256
	// Output buffers of 16 flits, two on an endpoint port, fill under full
	// load: a retention window holds at most a round trip of deadlines, so
	// only queued flits can take a port past its capacity.
	fullOut := microSnapConfig()
	fullOut.OutputBufFlits = 16
	cases := []struct {
		name   string
		cfg    *core.Config
		load   float64
		at     int64
		hist   bool // latency histograms on every endpoint shard
		flips  []byte
		fields []string
	}{
		{"faults", microSnapConfig(), 0.4, 200, true, []byte{0x7F, 0x01}, []string{
			"routeLatch.out", "routeLatch.vc", "routeLatch.stashCol", "inPort.sVC",
			"tile.vcNext", "sLatch.port", "credit.VC",
			"sbMsg.kind", "sbMsg.dst", "sbMsg.aux", "e2eEntry.stashPort", "e2eEntry.port",
			"RoundRobin.next", "StashPool filling copies", "StashPool fill flits",
			"Endpoint.rrIdx", "PktDesc.dst", "PktDesc.size", "PktDesc.class", "curPkt.seq",
			"flit.Out", "flit.OrigOut", "flit.Src", "flit.Dst", "flit.MidGroup",
			"fault: stash-failure cursor",
			"column-buffer flit.VC",
			"Hist bucket index", "Hist bucket sum",
		}},
		{"zeros", microSnapConfig(), 0.4, 200, true, []byte{0x00}, []string{
			"StashPool payload length", "Hist bucket count",
		}},
		{"parity", parity, 0.4, 152, false, []byte{0x7F}, []string{
			"reconRec.target",
			"parityGroup.n", "parityGroup.state", "parityGroup.bankSet", "parityGroup.parityBank",
			"parityMember.bank", "ParityTracker group index",
		}},
		{"congested", microSnapConfig(), 1, 431, false, []byte{0x01, 0x00, 0x04}, []string{
			"DAMQ flit.VC", "DAMQ.resvUsed", "OutBuf flit.VC", "send queue length",
		}},
		{"no-pool", noPool, 1, 600, false, []byte{0x7F}, []string{
			"DAMQ.shared",
		}},
		{"full-output", fullOut, 1, 200, false, []byte{0x02}, []string{
			"OutBuf used flits",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := microNet(t, tc.cfg, tc.load)
			if tc.hist {
				n.Collectors.WithHist(proto.ClassDefault)
			}
			valid := checkpointAt(t, n, tc.at)
			want := make(map[string]bool, len(tc.fields))
			for _, f := range tc.fields {
				want[f] = true
			}
			data := make([]byte, len(valid))
			for _, flip := range tc.flips {
				for off := 0; off < len(valid) && len(want) > 0; off++ {
					copy(data, valid)
					data[off] = flip
					err := microNet(t, tc.cfg, tc.load).Restore(data)
					if err == nil {
						continue
					}
					for _, f := range tc.fields {
						if want[f] && strings.Contains(err.Error(), "snapshot: "+f+" = ") {
							delete(want, f)
						}
					}
				}
			}
			for _, f := range tc.fields {
				if want[f] {
					t.Errorf("no single-byte flip to any of % x made Restore fail naming %s", tc.flips, f)
				}
			}
		})
	}
}
