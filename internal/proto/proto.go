// Package proto defines the wire-level data types of the simulated network:
// flits, packet kinds, virtual-channel constants, and credit messages.
//
// Flits are plain value structs. Every flit of a packet carries the full
// packet metadata, so the simulator never allocates per-packet state on the
// hot path; buffers are rings of Flit values. Routing state (adaptive-path
// phase, Valiant intermediate group) lives in the head flit and is copied to
// body flits when the packet is segmented; only the head flit's copy is ever
// consulted.
package proto

// Architectural constants from the paper's Section V configuration.
const (
	// FlitBytes is the flit size in bytes (10 B at 10 GB/s and 1 GHz).
	FlitBytes = 10
	// MaxPacketFlits is the maximum data packet size in flits.
	MaxPacketFlits = 24
	// NumNetVCs is the number of network virtual channels used by the
	// PAR routing algorithm for deadlock avoidance.
	NumNetVCs = 6
	// VCStore is the internal storage ("S") virtual channel added by the
	// stashing architecture. It is not visible outside a switch.
	VCStore = NumNetVCs
	// VCRetrieve is the internal retrieval ("R") virtual channel.
	VCRetrieve = NumNetVCs + 1
	// NumVCs is the total number of VC indexes in switch-internal
	// structures (network VCs plus S and R).
	NumVCs = NumNetVCs + 2
	// OutPending is the Out of a storage-VC flit between the row bus and
	// its tile: the stash port is chosen there, by join-shortest-queue.
	OutPending = 0xFF
)

// Kind discriminates packet types.
type Kind uint8

const (
	// Data is a normal data packet (1..MaxPacketFlits flits).
	Data Kind = iota
	// ACK is a single-flit, hardware-generated end-to-end acknowledgment.
	// Its PktID field names the data packet being acknowledged.
	ACK
)

// Flags is a bitset of per-flit attributes.
type Flags uint8

const (
	// FlagHead marks the first flit of a packet.
	FlagHead Flags = 1 << iota
	// FlagTail marks the last flit of a packet. A single-flit packet has
	// both FlagHead and FlagTail set.
	FlagTail
	// FlagECN is the explicit congestion notification mark, set by
	// congested switch input ports and copied into the ACK by the
	// destination endpoint.
	FlagECN
	// FlagNack marks an ACK as negative: the data packet arrived
	// corrupted (used by the error-injection extension) and must be
	// retransmitted from its stashed copy.
	FlagNack
	// FlagNonMinimal marks a packet routed over a Valiant path.
	FlagNonMinimal
	// FlagShared records that this flit occupies the downstream DAMQ's
	// shared pool rather than its per-VC reserved quota; the returned
	// credit must replenish the matching pool.
	FlagShared
	// FlagStashCopy marks the stash duplicate of a packet created by the
	// end-to-end reliability mechanism. Stash copies terminate at a
	// stash buffer and are never forwarded off-switch.
	FlagStashCopy
	// FlagRetransmit marks a re-injected packet (stash-copy resend or
	// source-endpoint retransmission). The destination uses it to account
	// recovery latency separately from first-attempt latency.
	FlagRetransmit
)

// Class labels traffic for statistics; it does not affect switching.
type Class uint8

const (
	// ClassDefault is plain synthetic traffic.
	ClassDefault Class = iota
	// ClassVictim is the measured traffic class in congestion studies.
	ClassVictim
	// ClassAggressor is the congestion-forming class.
	ClassAggressor
	// ClassTrace is trace-replay traffic.
	ClassTrace
	// NumClasses is the number of traffic classes.
	NumClasses
)

// RoutePhase tracks a packet's progress along its dragonfly path.
type RoutePhase uint8

const (
	// PhaseInject: the packet has not yet left its first-hop switch; the
	// minimal-vs-Valiant decision may still be (re)made progressively.
	PhaseInject RoutePhase = iota
	// PhaseToMid: committed to a Valiant path, heading to the
	// intermediate group.
	PhaseToMid
	// PhaseMinimal: heading to the destination group minimally.
	PhaseMinimal
)

// Flit is the unit of switching and flow control. It is a value type;
// buffers copy flits rather than sharing pointers.
type Flit struct {
	Src, Dst int32 // endpoint ids
	MsgID    uint32
	PktID    uint64 // globally unique: src<<32 | per-source sequence
	Birth    int64  // injection cycle of the packet's head flit

	Seq       uint8 // flit index within the packet
	Size      uint8 // packet size in flits
	VC        uint8 // VC occupied on the current channel / buffer
	RestoreVC uint8 // original VC of a stash-retrieved packet

	// Switch-internal routing state, valid between the input buffer and
	// the output buffer of one switch traversal.
	Out     uint8 // output port the flit is heading to inside the switch
	OrigOut uint8 // intended output port of a congestion-stashed packet

	Kind  Kind
	Flags Flags
	Class Class

	Phase    RoutePhase
	Hops     uint8 // switch-to-switch channels traversed so far
	MidGroup int16 // Valiant intermediate group; -1 when minimal

	// Csum is the packet checksum covering the flit's stable identity
	// fields (see FlitSum). The fault injector models payload bit errors
	// by perturbing it; the destination endpoint verifies it on ejection.
	Csum uint16
}

// Head reports whether f is a head flit.
//
//stashsim:noalloc
func (f *Flit) Head() bool { return f.Flags&FlagHead != 0 }

// Tail reports whether f is a tail flit.
//
//stashsim:noalloc
func (f *Flit) Tail() bool { return f.Flags&FlagTail != 0 }

// FlitSum computes the flit checksum over the fields that are immutable
// in flight: identity (Src, Dst, MsgID, PktID, Birth), position (Seq,
// Size), and type (Kind, Class). Mutable switching state — VC, flags,
// routing phase, hop count — is deliberately excluded, so the checksum
// survives re-routing, VC remapping, and stash store/retrieve untouched;
// only injected corruption invalidates it. FNV-1a folded to 16 bits.
func FlitSum(f *Flit) uint16 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(uint32(f.Src)))
	mix(uint64(uint32(f.Dst)))
	mix(uint64(f.MsgID))
	mix(f.PktID)
	mix(uint64(f.Birth))
	mix(uint64(f.Seq) | uint64(f.Size)<<8 | uint64(f.Kind)<<16 | uint64(f.Class)<<24)
	return uint16(h ^ h>>16 ^ h>>32 ^ h>>48)
}

// MakePktID builds a globally unique packet id from a source endpoint and a
// per-source monotone sequence number.
func MakePktID(src int32, seq uint32) uint64 {
	return uint64(uint32(src))<<32 | uint64(seq)
}

// PktIDSrc extracts the source endpoint from a packet id.
func PktIDSrc(id uint64) int32 { return int32(uint32(id >> 32)) }

// Credit is a flow-control credit returned upstream when a flit leaves an
// input buffer. Shared indicates which DAMQ pool the freed slot belongs to.
type Credit struct {
	VC     uint8
	Shared bool
}

// Segment splits a message of the given size in flits into packet sizes of
// at most MaxPacketFlits, returned as a slice of per-packet flit counts.
// Messages are at least one flit; Segment panics on non-positive sizes to
// catch generator bugs early.
func Segment(flits int) []int {
	if flits <= 0 {
		panic("proto: message with non-positive flit count")
	}
	n := (flits + MaxPacketFlits - 1) / MaxPacketFlits
	out := make([]int, 0, n)
	for flits > 0 {
		s := flits
		if s > MaxPacketFlits {
			s = MaxPacketFlits
		}
		out = append(out, s)
		flits -= s
	}
	return out
}
