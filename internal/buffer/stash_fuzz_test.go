package buffer

import (
	"math/rand"
	"slices"
	"testing"

	"stashsim/internal/proto"
)

// stashModel is what driveStashPools expects of one StashPool: the copies
// live in it, the one filling (dead once its bank failed), the flits queued
// for retrieval (true for a retransmission copy), and the reservations of
// rebuilds headed for it.
type stashModel struct {
	live    map[uint64]uint8
	fill    *modelFill
	retr    []bool
	rebuild int
}

type modelFill struct {
	id         uint64
	size, seq  uint8
	dead       bool
	congestion bool
}

// modelRecon is a rebuild in flight between the two pools: the payload
// extracted from one, the reservation held in the other.
type modelRecon struct {
	id      uint64
	size    uint8
	target  int
	payload FlitList
}

// driveStashPools runs an op stream over two StashPools that share one
// FlitPool, as a switch's banks do. Each byte is an op (top three bits) and
// its argument (low five): start a copy or a congestion-stashed packet,
// store its next flit, delete a copy, extract a copy into a rebuild, land
// or abort a rebuild, fail a bank, queue a copy for retransmission, and pop
// the retrieval queue. After every op the flit pool is audited over every
// list the pools and the rebuilds hold, each retained payload must hold its
// packet's flits in order, and the slots in use and each pool's committed
// space must match the model. At the end everything is delivered, deleted
// and drained, and no slot may be left in use.
func driveStashPools(t *testing.T, ops []byte) {
	retain := len(ops) > 0 && ops[0]&1 != 0
	flits := new(FlitPool)
	pools := [2]*StashPool{NewStashPoolIn(flits, 48, retain), NewStashPoolIn(flits, 48, retain)}
	var model [2]stashModel
	for i := range model {
		model[i].live = make(map[uint64]uint8)
	}
	var recons []modelRecon
	nextID := uint64(1)

	liveIDs := func(m *stashModel) []uint64 {
		ids := make([]uint64, 0, len(m.live))
		for id := range m.live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids
	}
	putNext := func(k int) {
		p, m := pools[k], &model[k]
		fl := m.fill
		f := proto.Flit{PktID: fl.id, Size: fl.size, Seq: fl.seq}
		fl.seq++
		if fl.congestion {
			p.PutCongested(f)
			m.retr = append(m.retr, false)
		} else {
			f.Flags = proto.FlagStashCopy
			if done := p.PutCopy(f); done != (!fl.dead && fl.seq == fl.size) {
				t.Fatalf("pool %d: PutCopy of flit %d/%d of pkt %d (dead %v) reported completion %v",
					k, fl.seq, fl.size, fl.id, fl.dead, done)
			}
			if !fl.dead && fl.seq == fl.size {
				m.live[fl.id] = fl.size
			}
		}
		if fl.seq == fl.size {
			m.fill = nil
		}
	}
	popRetr := func(k int) {
		p, m := pools[k], &model[k]
		f := p.RetrPop()
		if f.Flags&proto.FlagStashCopy != 0 {
			t.Fatalf("pool %d: a popped flit kept its stash-copy flag", k)
		}
		m.retr = m.retr[1:]
	}
	check := func(step int) {
		t.Helper()
		err := flits.Audit(func(visit func(*FlitList)) {
			for _, p := range pools {
				p.AuditLists(visit)
			}
			for i := range recons {
				visit(&recons[i].payload)
			}
		})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		inUse := 0
		for k, p := range pools {
			m := &model[k]
			used := m.rebuild
			for id, size := range m.live {
				used += int(size)
				if !retain {
					continue
				}
				inUse += int(size)
				l, ok := p.Retained(id)
				if !ok || l.Len() != int(size) {
					t.Fatalf("step %d: pool %d retains %d flits of pkt %d (%v), want %d", step, k, l.Len(), id, ok, size)
				}
				for seq, i := 0, l.Head(); seq < l.Len(); seq, i = seq+1, flits.Next(i) {
					if f := flits.Get(i); f.PktID != id || int(f.Seq) != seq {
						t.Fatalf("step %d: pool %d payload of pkt %d holds pkt %d seq %d at %d", step, k, id, f.PktID, f.Seq, seq)
					}
				}
			}
			if fl := m.fill; fl != nil {
				switch {
				case fl.dead:
					used += int(fl.size - fl.seq)
				case fl.congestion:
					used += int(fl.size - fl.seq) // the arrived flits are counted on the retrieval queue
				default:
					used += int(fl.size)
					if retain {
						inUse += int(fl.seq)
					}
				}
			}
			for _, copied := range m.retr {
				if !copied {
					used++
				}
			}
			inUse += len(m.retr)
			if p.Used() != used {
				t.Fatalf("step %d: pool %d commits %d flits, the model %d", step, k, p.Used(), used)
			}
		}
		for _, r := range recons {
			inUse += r.payload.Len()
		}
		if flits.InUse() != inUse {
			t.Fatalf("step %d: %d slots in use, the model holds %d", step, flits.InUse(), inUse)
		}
	}

	for step, op := range ops {
		arg := int(op & 31)
		k := arg & 1
		p, m := pools[k], &model[k]
		switch op >> 5 {
		case 0, 1: // start a copy (op 0) or a congestion-stashed packet (op 1)
			size := uint8(arg>>1%8 + 1)
			if m.fill != nil || p.Free() < int(size) {
				break
			}
			p.Reserve(int(size))
			m.fill = &modelFill{id: nextID, size: size, congestion: op>>5 == 1}
			nextID++
		case 2: // the filling packet's next flit arrives
			if m.fill != nil {
				putNext(k)
			}
		case 3: // an ACK deletes a copy, or a stale delete is ignored
			ids := liveIDs(m)
			if len(ids) == 0 || arg>>1 == 15 {
				if p.Delete(nextID+1000, 3) {
					t.Fatalf("step %d: deleted a copy that was never stored", step)
				}
				break
			}
			id := ids[arg>>1%len(ids)]
			if !p.Delete(id, int(m.live[id])) {
				t.Fatalf("step %d: pool %d did not delete live pkt %d", step, k, id)
			}
			delete(m.live, id)
		case 4: // a rebuild extracts a copy and reserves room in the other pool
			ids := liveIDs(m)
			o := 1 - k
			if len(ids) == 0 {
				break
			}
			id := ids[arg>>1%len(ids)]
			size := m.live[id]
			if pools[o].Free() < int(size) {
				break
			}
			l, ok := p.ExtractCopy(id)
			if !ok || (retain && l.Len() != int(size)) || (!retain && !l.Empty()) {
				t.Fatalf("step %d: ExtractCopy of pkt %d: %d flits, %v", step, id, l.Len(), ok)
			}
			delete(m.live, id)
			pools[o].Reserve(int(size))
			model[o].rebuild += int(size)
			recons = append(recons, modelRecon{id: id, size: size, target: o, payload: l})
		case 5: // the oldest rebuild lands, or is aborted
			if len(recons) == 0 {
				break
			}
			r := recons[0]
			recons = recons[1:]
			dst := pools[r.target]
			model[r.target].rebuild -= int(r.size)
			if arg&2 != 0 {
				dst.Unreserve(int(r.size))
				r.payload.Reset(flits)
				break
			}
			dst.InstallCopy(r.id, int(r.size), r.payload)
			model[r.target].live[r.id] = r.size
		case 6: // a bank fails
			want := liveIDs(m)
			if fl := m.fill; fl != nil && !fl.dead && !fl.congestion && fl.seq > 0 {
				want = append(want, fl.id)
				slices.Sort(want)
				fl.dead = true
			}
			if lost := p.FailBank(); !slices.Equal(lost, want) {
				t.Fatalf("step %d: pool %d lost %v, want %v", step, k, lost, want)
			}
			clear(m.live)
		case 7: // queue a copy for retransmission, or pop the retrieval queue
			ids := liveIDs(m)
			if arg&2 == 0 && retain && len(ids) > 0 {
				l, _ := p.Retained(ids[arg>>2%len(ids)])
				for n, i := 0, l.Head(); n < l.Len(); n, i = n+1, flits.Next(i) {
					p.PushRetr(*flits.Get(i))
					m.retr = append(m.retr, true)
				}
			} else if p.RetrLen() > 0 {
				popRetr(k)
			}
		}
		check(step)
	}

	// Deliver, delete and drain everything: no slot may stay in use.
	for len(recons) > 0 {
		r := recons[0]
		recons = recons[1:]
		pools[r.target].InstallCopy(r.id, int(r.size), r.payload)
		model[r.target].rebuild -= int(r.size)
		model[r.target].live[r.id] = r.size
	}
	for k, p := range pools {
		m := &model[k]
		for m.fill != nil {
			putNext(k)
		}
		for _, id := range liveIDs(m) {
			p.Delete(id, int(m.live[id]))
			delete(m.live, id)
		}
		for p.RetrLen() > 0 {
			popRetr(k)
		}
		if p.Used() != 0 {
			t.Fatalf("pool %d commits %d flits after the drain", k, p.Used())
		}
	}
	check(len(ops))
	if flits.InUse() != 0 {
		t.Fatalf("%d slots in use after the drain", flits.InUse())
	}
}

// TestStashPoolModel drives two pools with seeded random op streams, with
// and without retained payloads.
func TestStashPoolModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		ops := make([]byte, 300)
		rng.Read(ops)
		driveStashPools(t, ops)
	}
}

// FuzzStashPool is driveStashPools over arbitrary op streams.
func FuzzStashPool(f *testing.F) {
	// Each seed's first byte sets retention (bit 0) and starts a one-flit
	// copy in the pool that bit names; 0x06 starts a 4-flit copy in pool 0,
	// and 0x40 stores pool 0's next flit.
	f.Add([]byte{0x01, 0x06, 0x40, 0x40, 0x40, 0x40, 0xe0, 0xe2, 0xe2, 0xe2, 0xe2, 0x60})                         // retransmit pool 0's copy, pop it, delete the copy
	f.Add([]byte{0x01, 0x06, 0x40, 0x40, 0x40, 0x40, 0x80, 0xa0, 0x06, 0x40, 0x40, 0x40, 0x40, 0x80, 0xa2})       // rebuild a copy into pool 1, then abort a second rebuild
	f.Add([]byte{0x01, 0x06, 0x40, 0x40, 0x40, 0x40, 0x0e, 0x40, 0x40, 0xc0, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40}) // pool 0 fails mid-fill; the stragglers arrive
	f.Add([]byte{0x00, 0x40, 0x22, 0x40, 0x40, 0xe2, 0xe2, 0xc0})                                                 // congestion stash without retained payloads, then pool 0 fails
	f.Fuzz(driveStashPools)
}
