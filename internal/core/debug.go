package core

import (
	"fmt"
	"strings"

	"stashsim/internal/proto"
)

// DumpState renders the switch's internal occupancy for debugging stalls.
func (s *Switch) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "switch %d\n", s.ID)
	for p := range s.in {
		ip := &s.in[p]
		if ip.buf.Used() == 0 {
			continue
		}
		fmt.Fprintf(&b, " in%d(%s) used=%d occ=%b", p, ip.class, ip.buf.Used(), ip.buf.Occupied())
		for vc := 0; vc < proto.NumNetVCs; vc++ {
			f := ip.buf.Front(vc)
			if f == nil {
				continue
			}
			lt := &ip.latch[vc]
			fmt.Fprintf(&b, " [vc%d len=%d pkt=%x seq=%d/%d hops=%d lat={act:%v start:%v out:%d vc:%d ej:%v}]",
				vc, ip.buf.Len(vc), f.PktID, f.Seq, f.Size, f.Hops, lt.active, lt.started, lt.out, lt.vc, lt.eject)
		}
		b.WriteByte('\n')
	}
	for ti := range s.tiles {
		t := &s.tiles[ti]
		if t.occupied == 0 {
			continue
		}
		fmt.Fprintf(&b, " tile(%d,%d) occ=%d", t.row, t.col, t.occupied)
		for slot := 0; slot < s.cfg.TileIn; slot++ {
			for vc := 0; vc < proto.NumVCs; vc++ {
				rb := &t.rowBufs[slot][vc]
				if rb.Empty() {
					continue
				}
				f := rb.Front()
				lk := &t.outLock[s.cfg.TileOutOf(int(f.Out))][vc]
				fmt.Fprintf(&b, " [s%d vc%d len=%d out=%d pkt=%x seq=%d lock={%x %v}]",
					slot, vc, rb.Len(), f.Out, f.PktID, f.Seq, lk.pkt, lk.active)
			}
		}
		b.WriteByte('\n')
	}
	for p := range s.out {
		op := &s.out[p]
		if op.colOcc == 0 && op.buf.Used() == 0 {
			continue
		}
		avail := -1
		if op.credited {
			avail = op.credits.SharedFree()
		}
		fmt.Fprintf(&b, " out%d(%s) colocc=%d queued=%d used=%d/%d sharedCred=%d acc=%d",
			p, op.class, op.colOcc, op.buf.Queued(), op.buf.Used(), op.buf.Capacity(), avail, op.acc)
		for r := 0; r < s.cfg.Rows; r++ {
			for vc := 0; vc < proto.NumVCs; vc++ {
				rb := &op.colBufs[r][vc]
				if rb.Empty() {
					continue
				}
				f := rb.Front()
				lk := &op.muxLock[effVC(f)]
				fmt.Fprintf(&b, " [r%d vc%d len=%d pkt=%x seq=%d lock={r%d %x %v}]",
					r, vc, rb.Len(), f.PktID, f.Seq, lk.row, lk.pkt, lk.active)
			}
		}
		occ := op.buf.Occupied()
		for vc := 0; vc < proto.NumNetVCs; vc++ {
			if occ&(1<<uint(vc)) == 0 {
				continue
			}
			f := op.buf.Front(vc)
			av := -1
			if op.credited {
				av = op.credits.Avail(vc)
			}
			fmt.Fprintf(&b, " {obuf vc%d pkt=%x seq=%d cred=%d}", vc, f.PktID, f.Seq, av)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
