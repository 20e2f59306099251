package network

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"stashsim/internal/core"
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
		t.Fatalf("micro snapshot (%d bytes) differs from the committed seed0 (%d bytes) at offset %d: the format changed",
			len(got), len(seed), at)
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
	if got, want := finalState(resumed), finalState(straight); !bytes.Equal(got, want) {
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
// accepted one may stop on a deliberate diagnostic (invariant violation,
// DAMQ quota, "front of empty ring": failing loudly is the contract), but
// no variant may reach a Go runtime.Error — that is a decoded index,
// shift or slice bound the walk failed to range-check.
func TestRestoreMutationSweep(t *testing.T) {
	valid := microSnapshot(t)
	stride := 1
	if testing.Short() {
		stride = 41
	}
	accepted, loud := 0, 0
	crashes := map[string][]int{}
	data := make([]byte, len(valid))
	for off := 0; off < len(valid); off += stride {
		if valid[off] == 0xFF {
			continue
		}
		copy(data, valid)
		data[off] = 0xFF
		n := microSnapNet(t)
		n.Invariants.Out = io.Discard // a violation dump per loud variant
		if err := n.Restore(data); err != nil {
			continue
		}
		accepted++
		msg, isRuntime := runAccepted(n, 300)
		switch {
		case isRuntime:
			crashes[msg] = append(crashes[msg], off)
		case msg != "":
			loud++
		}
	}
	t.Logf("%d variants accepted by Restore, %d of them stopped on a deliberate diagnostic", accepted, loud)
	if len(crashes) == 0 {
		return
	}
	msgs := make([]string, 0, len(crashes))
	total := 0
	for m, offs := range crashes {
		msgs = append(msgs, m)
		total += len(offs)
	}
	sort.Strings(msgs)
	for _, m := range msgs {
		offs := crashes[m]
		t.Errorf("%d variants (first at offset %d): %s", len(offs), offs[0], m)
	}
	t.Errorf("%d accepted variants hit a runtime.Error within 300 cycles", total)
}

// TestRestoreNamesOutOfRangeField is the table behind the walk's bounds
// checks: for every range-checked field, some single byte of a genuine
// snapshot set to 0x7F (out of range for every index-like field of a
// micro network: 127 as a byte, bit 6 of a mask, -1's complement of
// nothing) must make Restore fail with an error that names the field.
// Two snapshots cover the fields: the fuzz target's, and a parity
// configuration caught with a reconstruction in flight. (The row-buffer
// flit.Out check has no single-byte witness: it takes a pending Out and a
// storage VC in a stream that is neither.)
func TestRestoreNamesOutOfRangeField(t *testing.T) {
	if testing.Short() {
		t.Skip("two full single-byte sweeps; adds no concurrency coverage to the race pass")
	}
	parity := microSnapConfig()
	parity.Topo.P = 3 // four stash-capable banks: a width-2 group, its parity, and a rebuild target
	parity.Rows, parity.Cols = 3, 3
	parity.StashParity = 2
	cases := []struct {
		name   string
		cfg    *core.Config
		at     int64
		fields []string
	}{
		{"faults", microSnapConfig(), 200, []string{
			"Switch.tileOcc", "Switch.muxOcc", "Switch.inActive", "Switch.outActive",
			"routeLatch.out", "routeLatch.vc", "routeLatch.stashCol", "inPort.sVC",
			"muxLock.row", "tile.vcNext", "sLatch.port",
			"sbMsg.kind", "sbMsg.dst", "sbMsg.aux", "e2eEntry.stashPort", "retryRec.port",
			"DAMQ.occupied", "OutBuf.occupied", "RoundRobin.next", "PktBuf.Flits length",
			"Endpoint.rrIdx", "send queue length", "pktDesc.dst", "pktDesc.size", "pktDesc.class", "curPkt.seq",
			"flit.Out", "flit.OrigOut", "flit.Src", "flit.Dst", "flit.MidGroup",
			"fault: stash-failure cursor",
		}},
		{"parity", parity, 152, []string{
			"reconRec.origin", "reconRec.target",
			"parityGroup.n", "parityGroup.state", "parityGroup.bankSet", "parityGroup.parityBank",
			"parityMember.bank", "ParityTracker group index",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			valid := checkpointAt(t, microNet(t, tc.cfg), tc.at)
			want := make(map[string]bool, len(tc.fields))
			for _, f := range tc.fields {
				want[f] = true
			}
			data := make([]byte, len(valid))
			for off := 0; off < len(valid) && len(want) > 0; off++ {
				copy(data, valid)
				data[off] = 0x7F
				err := microNet(t, tc.cfg).Restore(data)
				if err == nil {
					continue
				}
				for _, f := range tc.fields {
					if want[f] && strings.Contains(err.Error(), "snapshot: "+f+" = ") {
						delete(want, f)
					}
				}
			}
			for _, f := range tc.fields {
				if want[f] {
					t.Errorf("no single-byte flip made Restore fail naming %s", f)
				}
			}
		})
	}
}
