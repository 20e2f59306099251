package trace

import (
	"fmt"

	"stashsim/internal/endpoint"
	"stashsim/internal/network"
	"stashsim/internal/proto"
)

// Replay drives a trace over a network: rank i runs on endpoint base+i
// (contiguous mapping, one rank per endpoint, as the paper's Figure 6
// methodology prescribes).
type Replay struct {
	tr  *Trace
	net *network.Network

	base        int32
	ptr         []int            // next event per rank
	expected    map[uint32]int   // msgID -> total flits
	got         map[uint32]int   // msgID -> flits arrived
	arrived     map[uint32]bool  // fully arrived messages
	waiter      map[uint32]int32 // msgID -> rank blocked on it
	outstanding int              // sends enqueued, not yet fully arrived
	doneRanks   int
}

// MsgFlits converts a message byte size to flits.
func MsgFlits(bytes int) int {
	f := (bytes + proto.FlitBytes - 1) / proto.FlitBytes
	if f < 1 {
		f = 1
	}
	return f
}

// NewReplay prepares a replay of tr on net, mapping rank 0 to endpoint
// base. It installs delivery hooks on the participating endpoints.
func NewReplay(tr *Trace, net *network.Network, base int32) (*Replay, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if int(base)+tr.Ranks > len(net.Endpoints) {
		return nil, fmt.Errorf("trace: %d ranks from base %d exceed %d endpoints",
			tr.Ranks, base, len(net.Endpoints))
	}
	r := &Replay{
		tr:       tr,
		net:      net,
		base:     base,
		ptr:      make([]int, tr.Ranks),
		expected: make(map[uint32]int),
		got:      make(map[uint32]int),
		arrived:  make(map[uint32]bool),
		waiter:   make(map[uint32]int32),
	}
	for _, evs := range tr.Events {
		for _, ev := range evs {
			if ev.Kind == Send {
				r.expected[ev.MsgID] = MsgFlits(ev.Bytes)
			}
		}
	}
	for rank := 0; rank < tr.Ranks; rank++ {
		ep := net.Endpoints[r.epOf(int32(rank))]
		ep.OnDelivered = r.onDelivered
	}
	return r, nil
}

func (r *Replay) epOf(rank int32) int32 { return r.base + rank }

func (r *Replay) rankOfMsgDst(msgID uint32) (int32, bool) {
	w, ok := r.waiter[msgID]
	return w, ok
}

// onDelivered accumulates packet arrivals into message completions and
// unblocks waiting ranks.
func (r *Replay) onDelivered(d endpoint.Delivery) {
	exp, ok := r.expected[d.MsgID]
	if !ok {
		return // non-trace traffic sharing the network
	}
	g := r.got[d.MsgID] + d.Flits
	if g < exp {
		r.got[d.MsgID] = g
		return
	}
	delete(r.got, d.MsgID)
	r.arrived[d.MsgID] = true
	r.outstanding--
	if rank, ok := r.rankOfMsgDst(d.MsgID); ok {
		delete(r.waiter, d.MsgID)
		r.advance(rank)
	}
}

// advance runs a rank forward: sends fire immediately, a recv blocks
// unless its message has already arrived.
func (r *Replay) advance(rank int32) {
	evs := r.tr.Events[rank]
	ep := r.net.Endpoints[r.epOf(rank)]
	for r.ptr[rank] < len(evs) {
		ev := evs[r.ptr[rank]]
		switch ev.Kind {
		case Send:
			flits := MsgFlits(ev.Bytes)
			ep.EnqueueMessage(r.epOf(ev.Peer), flits, proto.ClassTrace, ev.MsgID)
			r.outstanding++
			r.ptr[rank]++
		case Recv:
			if r.arrived[ev.MsgID] {
				delete(r.arrived, ev.MsgID)
				r.ptr[rank]++
				continue
			}
			r.waiter[ev.MsgID] = rank
			return
		}
	}
	r.doneRanks++
}

// Done reports whether every rank has finished and every message arrived.
func (r *Replay) Done() bool {
	return r.doneRanks == r.tr.Ranks && r.outstanding == 0
}

// Run replays the trace, returning the simulated cycles it took. It
// returns an error if the trace does not complete within maxCycles
// (deadlock or insufficient budget).
func (r *Replay) Run(maxCycles int64) (int64, error) {
	start := r.net.Now
	for rank := 0; rank < r.tr.Ranks; rank++ {
		r.advance(int32(rank))
	}
	// One run with a stop check after every cycle, not a Step per cycle:
	// each public run entry wakes every component, and most of a
	// latency-bound replay is components with nothing due.
	if !r.Done() && !r.net.RunUntil(maxCycles, 1, r.Done) {
		return 0, fmt.Errorf("trace %s: incomplete after %d cycles (%d/%d ranks done, %d msgs outstanding)",
			r.tr.Name, maxCycles, r.doneRanks, r.tr.Ranks, r.outstanding)
	}
	return r.net.Now - start, nil
}
