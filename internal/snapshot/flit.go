package snapshot

import (
	"encoding/binary"

	"stashsim/internal/proto"
)

// A flit in a queue is written as a tag byte and the groups of fields in
// which it differs from its prediction, the queue's previous flit moved
// on by one (see the flit* bits). The next flit of the same packet is
// predicted whole, so in the usual queue — a packet's flits back to back —
// every flit after the head costs one byte. The first flit of a queue has
// no previous flit: it must carry its packet, and its other groups are
// predicted from the zero flit.
//
// Decoding rebuilds the flit, refuses a group the tag writes though it
// equals its prediction (so that every flit has one encoding), and passes
// the rebuilt flit through the proto wire codec, whose range checks it
// must meet like any flit off the wire.

// The bits of a flit's tag byte. All but the last two name a group of
// fields that follows the tag, in this order, varint-coded where wider
// than a byte; the last two say where the checksum comes from.
const (
	// flitPacket: Src, Dst, MsgID, PktID, Birth, Size, Kind, Class — a
	// packet other than the previous flit's, whose Seq is predicted 0.
	// Without it the flit continues the previous flit's packet and its Seq
	// is predicted to be the next.
	flitPacket uint8 = 1 << iota
	// flitSeq: Seq, when it is not the predicted one.
	flitSeq
	// flitFlags: Flags, when they are not the previous flit's with Head
	// and Tail set by the position of Seq in the packet.
	flitFlags
	// flitVC: VC and RestoreVC.
	flitVC
	// flitOut: Out and OrigOut.
	flitOut
	// flitRoute: Phase, Hops and MidGroup.
	flitRoute
	// flitSum: Csum is proto.FlitSum of the flit, as in a run that
	// verifies checksums. With neither this bit nor the next, Csum is 0,
	// as in a run that does not.
	flitSum
	// flitCsum: Csum follows: it is neither 0 nor FlitSum (a flit the
	// fault injector corrupted). A tag may not set both bits.
	flitCsum
)

// maxFlitSize bounds one flit's encoding: the tag, the packet group's
// three 32-bit and two 64-bit varints and three bytes, eight more bytes,
// and MidGroup and Csum as 16-bit varints.
const maxFlitSize = 1 + 3*5 + 2*binary.MaxVarintLen64 + 3 + 8 + 2*3

// FlitQueue is the context a queue's flits are written against: the flit
// written or read last. The zero value starts a queue.
type FlitQueue struct {
	prev    proto.Flit
	follows bool // prev is a flit of this queue
}

// samePacket reports whether a and b carry the same packet group.
func samePacket(a, b *proto.Flit) bool {
	return a.Src == b.Src && a.Dst == b.Dst && a.MsgID == b.MsgID && a.PktID == b.PktID &&
		a.Birth == b.Birth && a.Size == b.Size && a.Kind == b.Kind && a.Class == b.Class
}

// predictFlags is the predicted Flags of a flit at seq in a size-flit
// packet after a flit with flags prev: prev's, with Head and Tail marking
// where seq stands.
func predictFlags(prev proto.Flags, seq, size uint8) proto.Flags {
	f := prev &^ (proto.FlagHead | proto.FlagTail)
	if seq == 0 {
		f |= proto.FlagHead
	}
	if seq+1 == size {
		f |= proto.FlagTail
	}
	return f
}

// Flit appends f as the next flit of queue q: a tag byte, then the groups
// that differ from the prediction.
func (w *Writer) Flit(f *proto.Flit, q *FlitQueue) {
	w.room(maxFlitSize)
	var base proto.Flit
	if q.follows {
		base = q.prev
	}
	tag, seq := uint8(0), base.Seq+1
	if !q.follows || !samePacket(f, &q.prev) {
		tag, seq = flitPacket, 0
	}
	if f.Seq != seq {
		tag |= flitSeq
	}
	if f.Flags != predictFlags(base.Flags, f.Seq, f.Size) {
		tag |= flitFlags
	}
	if f.VC != base.VC || f.RestoreVC != base.RestoreVC {
		tag |= flitVC
	}
	if f.Out != base.Out || f.OrigOut != base.OrigOut {
		tag |= flitOut
	}
	if f.Phase != base.Phase || f.Hops != base.Hops || f.MidGroup != base.MidGroup {
		tag |= flitRoute
	}
	switch {
	case f.Csum == 0:
	case f.Csum == proto.FlitSum(f):
		tag |= flitSum
	default:
		tag |= flitCsum
	}
	b := append(w.buf, tag)
	if tag&flitPacket != 0 {
		b = binary.AppendUvarint(b, uint64(uint32(f.Src)))
		b = binary.AppendUvarint(b, uint64(uint32(f.Dst)))
		b = binary.AppendUvarint(b, uint64(f.MsgID))
		b = binary.AppendUvarint(b, f.PktID)
		b = binary.AppendUvarint(b, zigzag(f.Birth))
		b = append(b, f.Size, uint8(f.Kind), uint8(f.Class))
	}
	if tag&flitSeq != 0 {
		b = append(b, f.Seq)
	}
	if tag&flitFlags != 0 {
		b = append(b, uint8(f.Flags))
	}
	if tag&flitVC != 0 {
		b = append(b, f.VC, f.RestoreVC)
	}
	if tag&flitOut != 0 {
		b = append(b, f.Out, f.OrigOut)
	}
	if tag&flitRoute != 0 {
		// MidGroup travels one up, so that the usual -1 is a zero byte.
		b = append(b, uint8(f.Phase), f.Hops)
		b = binary.AppendUvarint(b, uint64(uint16(f.MidGroup+1)))
	}
	if tag&flitCsum != 0 {
		b = binary.AppendUvarint(b, uint64(f.Csum))
	}
	w.buf = b
	q.prev, q.follows = *f, true
}

// Flit reads the next flit of queue q into f (see Writer.Flit); f is the
// zero flit after a failure. It fails, naming the offset of the tag, on a
// tag that sets both checksum bits, on a flit that continues a packet
// where the queue has no flit before it, on a group written though it
// equals its prediction, and on a rebuilt flit the proto wire codec
// refuses.
func (r *Reader) Flit(f *proto.Flit, q *FlitQueue) {
	at := r.off
	tag := r.U8()
	*f = proto.Flit{}
	switch {
	case r.failed():
		return
	case tag&(flitSum|flitCsum) == flitSum|flitCsum:
		r.Failf("flit tag %#x at offset %d says both that Csum is FlitSum and that it follows", tag, at)
		return
	case tag&flitPacket == 0 && !q.follows:
		r.Failf("flit at offset %d continues a packet, but no flit comes before it in its queue", at)
		return
	case q.follows:
		*f = q.prev
	}
	if tag&flitPacket != 0 {
		f.Src, f.Dst, f.MsgID = int32(r.U32()), int32(r.U32()), r.U32()
		f.PktID, f.Birth = r.U64(), r.I64()
		f.Size, f.Kind, f.Class = r.U8(), proto.Kind(r.U8()), proto.Class(r.U8())
		f.Seq = 0
		if q.follows && samePacket(f, &q.prev) {
			r.nonCanonical(at, tag, "its packet")
		}
	} else {
		f.Seq++
	}
	if tag&flitSeq != 0 {
		if seq := r.U8(); seq != f.Seq {
			f.Seq = seq
		} else {
			r.nonCanonical(at, tag, "Seq")
		}
	}
	flags := predictFlags(f.Flags, f.Seq, f.Size)
	if tag&flitFlags != 0 {
		if v := proto.Flags(r.U8()); v != flags {
			flags = v
		} else {
			r.nonCanonical(at, tag, "Flags")
		}
	}
	f.Flags = flags
	if tag&flitVC != 0 {
		vc, restore := r.U8(), r.U8()
		if vc == f.VC && restore == f.RestoreVC {
			r.nonCanonical(at, tag, "VC and RestoreVC")
		}
		f.VC, f.RestoreVC = vc, restore
	}
	if tag&flitOut != 0 {
		out, orig := r.U8(), r.U8()
		if out == f.Out && orig == f.OrigOut {
			r.nonCanonical(at, tag, "Out and OrigOut")
		}
		f.Out, f.OrigOut = out, orig
	}
	if tag&flitRoute != 0 {
		phase, hops, mid := proto.RoutePhase(r.U8()), r.U8(), int16(r.U16()-1)
		if phase == f.Phase && hops == f.Hops && mid == f.MidGroup {
			r.nonCanonical(at, tag, "Phase, Hops and MidGroup")
		}
		f.Phase, f.Hops, f.MidGroup = phase, hops, mid
	}
	switch f.Csum = 0; {
	case tag&flitSum != 0:
		if f.Csum = proto.FlitSum(f); f.Csum == 0 {
			r.nonCanonical(at, tag, "a zero Csum as FlitSum")
		}
	case tag&flitCsum != 0:
		if f.Csum = r.U16(); f.Csum == 0 || f.Csum == proto.FlitSum(f) {
			r.nonCanonical(at, tag, "Csum")
		}
	}
	if r.failed() {
		*f = proto.Flit{}
		return
	}
	// A flit whose tag writes none of the fields the wire codec checks
	// but Seq has the others from the flit before it, which passed.
	if tag&(flitPacket|flitVC|flitRoute) != 0 || f.Seq >= f.Size {
		var wire [proto.FlitWireSize]byte
		var err error
		if *f, _, err = proto.DecodeFlit(proto.AppendFlit(wire[:0], f)); err != nil {
			r.Failf("flit at offset %d: %v", at, err)
			return
		}
	}
	q.prev, q.follows = *f, true
}

// nonCanonical fails a flit whose tag writes what its prediction already
// gives.
func (r *Reader) nonCanonical(at int, tag uint8, what string) {
	r.Failf("flit at offset %d: tag %#x writes %s, which the prediction gives (not canonical)", at, tag, what)
}
