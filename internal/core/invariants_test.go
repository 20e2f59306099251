package core

import (
	"io"
	"math/bits"
	"strings"
	"testing"

	"stashsim/internal/proto"
)

// TestInvariantsCatchClearedLock: a wormhole lock is one bit and names no
// packet, so law 7 is what ties it to the packet whose body flits wait
// behind it. A lone switch is oversubscribed from one input until a body
// flit sits at the front of a row buffer (or of a column buffer), every
// cycle auditing clean; then that front's lock bit is cleared behind the
// switch's back, and the audit must fail naming the switch.
func TestInvariantsCatchClearedLock(t *testing.T) {
	for _, tc := range []struct {
		name  string
		clear func(s *Switch) bool // clears the lock of one body front, if there is one
	}{
		{"tile", func(s *Switch) bool {
			for ti := range s.tiles {
				tl := &s.tiles[ti]
				for slot := range tl.rowBufs {
					for stream, rb := range tl.rowBufs[slot] {
						if rb.Empty() || stream == proto.VCStore {
							continue
						}
						if f := rb.Front(&s.pools.flits); !f.Head() {
							tl.outLock[s.tileOutOf[f.Out]] &^= 1 << f.VC
							return true
						}
					}
				}
			}
			return false
		}},
		{"mux", func(s *Switch) bool {
			for p := range s.out {
				op := &s.out[p]
				for m := op.colMask; m != 0; m &= m - 1 {
					idx := bits.TrailingZeros64(m)
					if f := op.colBufs[idx/proto.NumVCs][idx%proto.NumVCs].Front(&s.pools.flits); !f.Head() {
						op.muxLock &^= 1 << effVC(f)
						return true
					}
				}
			}
			return false
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newSwHarness(t, nil)
			gport := h.cfg.Topo.GlobalPort(0)
			for i := 0; i < 40; i++ {
				h.inject(gport, proto.Flit{
					Src: 50, Dst: 1, PktID: proto.MakePktID(50, uint32(i)), Size: 24,
					Kind: proto.Data, VC: 1, Hops: 2, Phase: proto.PhaseMinimal, MidGroup: -1,
				})
			}
			iv := &Invariants{Switches: []*Switch{h.s}, Out: io.Discard}
			for k := 0; k < 2000; k++ {
				h.run(1)
				iv.checkLocks(h.now) // a healthy switch passes every cycle
				if !tc.clear(h.s) {
					continue
				}
				defer func() {
					msg, _ := recover().(string)
					if want := "wormhole locks: sw0 "; !strings.Contains(msg, want) {
						t.Fatalf("audit of a cleared lock panicked with %q, want it to name %q", msg, want)
					}
				}()
				iv.checkLocks(h.now)
				return
			}
			t.Fatal("no body flit at the front of a buffer in 2000 cycles")
		})
	}
}
