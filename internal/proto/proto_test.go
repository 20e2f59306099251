package proto

import (
	"testing"
	"testing/quick"
)

// sizes lists the packet sizes Segment describes, first to last.
func sizes(flits int) []int {
	n, last := Segment(flits)
	out := make([]int, n)
	for i := range out {
		out[i] = MaxPacketFlits
	}
	out[n-1] = last
	return out
}

func TestSegmentSinglePacket(t *testing.T) {
	for flits := 1; flits <= MaxPacketFlits; flits++ {
		if n, last := Segment(flits); n != 1 || last != flits {
			t.Fatalf("Segment(%d) = %d, %d", flits, n, last)
		}
	}
}

func TestSegmentMultiPacket(t *testing.T) {
	if n, last := Segment(50); n != 3 || last != 2 {
		t.Fatalf("Segment(50) = %d, %d, want 3 packets, the last of 2 flits", n, last)
	}
	if n, last := Segment(2 * MaxPacketFlits); n != 2 || last != MaxPacketFlits {
		t.Fatalf("Segment(%d) = %d, %d, want 2 full packets", 2*MaxPacketFlits, n, last)
	}
}

func TestSegmentConservesFlits(t *testing.T) {
	if err := quick.Check(func(raw uint16) bool {
		flits := int(raw)%5000 + 1
		total := 0
		for _, s := range sizes(flits) {
			if s < 1 || s > MaxPacketFlits {
				return false
			}
			total += s
		}
		return total == flits
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Segment(0)
}

func TestPktIDRoundTrip(t *testing.T) {
	if err := quick.Check(func(src int32, seq uint32) bool {
		if src < 0 {
			src = -src
		}
		id := MakePktID(src, seq)
		return PktIDSrc(id) == src && uint32(id) == seq
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPktIDUniqueAcrossSources(t *testing.T) {
	a := MakePktID(1, 5)
	b := MakePktID(2, 5)
	if a == b {
		t.Fatal("packet ids collide across sources")
	}
}

func TestFlitFlags(t *testing.T) {
	f := Flit{Flags: FlagHead}
	if !f.Head() || f.Tail() {
		t.Fatal("head flag misread")
	}
	f.Flags |= FlagTail
	if !f.Tail() {
		t.Fatal("tail flag misread")
	}
	f.Flags &^= FlagHead
	if f.Head() {
		t.Fatal("cleared head still set")
	}
}

func TestFlitSumStableUnderSwitching(t *testing.T) {
	f := Flit{
		Src: 3, Dst: 17, MsgID: 9, PktID: MakePktID(3, 40), Birth: 1234,
		Seq: 1, Size: 4, VC: 0, Kind: Data, Class: ClassDefault,
	}
	sum := FlitSum(&f)
	// Everything the network mutates in flight must not move the checksum.
	f.VC = 5
	f.RestoreVC = 2
	f.Out, f.OrigOut = 7, 3
	f.Flags |= FlagECN | FlagNonMinimal | FlagShared | FlagRetransmit
	f.Phase = PhaseMinimal
	f.Hops = 3
	f.MidGroup = 4
	if FlitSum(&f) != sum {
		t.Fatal("checksum covers mutable switching state")
	}
	// Identity fields must move it.
	g := f
	g.PktID++
	if FlitSum(&g) == sum {
		t.Fatal("checksum blind to PktID")
	}
	h := f
	h.Seq++
	if FlitSum(&h) == sum {
		t.Fatal("checksum blind to Seq")
	}
}

func TestFlitSumSpread(t *testing.T) {
	// Distinct flits should rarely collide; with 1000 sequential packets a
	// handful of 16-bit collisions is expected, but not mass collision.
	seen := make(map[uint16]int)
	for i := 0; i < 1000; i++ {
		f := Flit{Src: 1, Dst: 2, PktID: MakePktID(1, uint32(i)), Size: 1}
		seen[FlitSum(&f)]++
	}
	if len(seen) < 900 {
		t.Fatalf("checksum collapses: %d distinct sums over 1000 flits", len(seen))
	}
}

func TestVCConstants(t *testing.T) {
	if VCStore != NumNetVCs || VCRetrieve != NumNetVCs+1 || NumVCs != NumNetVCs+2 {
		t.Fatal("VC constant arithmetic broken")
	}
	if NumNetVCs != 6 {
		t.Fatalf("paper requires 6 network VCs, got %d", NumNetVCs)
	}
	if MaxPacketFlits != 24 || FlitBytes != 10 {
		t.Fatal("paper packet/flit sizing changed")
	}
}
