package buffer

import (
	"math"
	"math/rand"
	"testing"

	"stashsim/internal/proto"
	"stashsim/internal/snapshot"
)

// timedPaths is the number of flit paths and of credit paths
// driveTimedList runs, each kind over one pool.
const timedPaths = 3

// driveTimedList replays one op stream against timedPaths flit paths and
// timedPaths credit paths, each kind threaded through one pool, and a plain
// FlitList in the flit pool that due flits are relinked onto, the way a
// switch's input buffer takes its arrivals. A timedModel, a slice of
// entries, is the reference for every path, a slice for the plain list.
// After every op it checks each path's Len, NextAt, FrontDue and Front and
// its entries along its links, both pools' accounting through Audit, and
// that neither pool's capacity passes its high-water mark rounded up to a
// chunk.
//
// Each op byte is a kind (top three bits) and an argument (low five), whose
// low bits name path a. The kinds: push a flit on a, due 0..3 cycles after
// its newest entry; push a credit on a, due 0..1 cycles after its newest
// entry; advance the clock 0..31 cycles and pop every due flit of a; pop
// one due credit of a; relink
// a's due front onto the plain list; push a burst of flits on a at one due
// cycle, which crosses chunk boundaries; take a flit or credit path
// through a checkpoint round trip, which must take no chunk; pop the plain
// list.
func driveTimedList(t *testing.T, ops []byte) {
	t.Helper()
	var (
		fp     FlitPool
		cp     Pool[proto.Credit]
		flits  [timedPaths]TimedList[proto.Flit]
		creds  [timedPaths]TimedList[proto.Credit]
		fmodel [timedPaths]timedModel[proto.Flit]
		cmodel [timedPaths]timedModel[proto.Credit]
		plain  FlitList
		pmodel []uint64
		now    int64
		next   uint64
	)
	// due returns a deadline d cycles after the newest of back, or after
	// now when back is empty.
	due := func(back int64, d int64) int64 { return max(now+1, back) + d }
	pushFlit := func(a int, at int64) {
		f := proto.Flit{PktID: next, Size: 1}
		next++
		flits[a].Push(&fp, at, f)
		fmodel[a].push(at, f)
	}
	for step, op := range ops {
		kind, arg := op>>5, int(op&31)
		a := arg % timedPaths
		switch kind {
		case 0:
			pushFlit(a, due(fmodel[a].back(), int64(arg/timedPaths)%4))
		case 1:
			at := due(cmodel[a].back(), int64(arg/timedPaths)%2)
			c := proto.Credit{VC: uint8(arg % proto.NumNetVCs)}
			creds[a].Push(&cp, at, c)
			cmodel[a].push(at, c)
		case 2:
			now += int64(arg)
			for {
				want, wok := fmodel[a].popDue(now)
				got, ok := flits[a].PopDue(&fp, now)
				if ok != wok || got != want {
					t.Fatalf("step %d: flit path %d PopDue = %v %v, model %v %v", step, a, got.PktID, ok, want.PktID, wok)
				}
				if !ok {
					break
				}
			}
		case 3:
			want, wok := cmodel[a].popDue(now)
			got, ok := creds[a].PopDue(&cp, now)
			if ok != wok || got != want {
				t.Fatalf("step %d: credit path %d PopDue = %v %v, model %v %v", step, a, got, ok, want, wok)
			}
		case 4:
			if flits[a].FrontDue(now) {
				plain.Link(&fp, flits[a].Unlink(&fp))
				f, _ := fmodel[a].popDue(now)
				pmodel = append(pmodel, f.PktID)
			}
		case 5:
			at := due(fmodel[a].back(), 1)
			for i := 0; i <= arg; i++ {
				pushFlit(a, at)
			}
		case 6:
			capacity := fp.Cap() + cp.Cap()
			if arg&16 == 0 {
				replayPath(t, step, &fp, &flits[a], (*snapshot.Codec).Flit)
			} else {
				replayPath(t, step, &cp, &creds[a], func(c *snapshot.Codec, cr *proto.Credit) {
					c.U8(&cr.VC)
					c.Bool(&cr.Shared)
				})
			}
			if fp.Cap()+cp.Cap() != capacity {
				t.Fatalf("step %d: replaying path %d took a chunk after Grow", step, a)
			}
		case 7:
			for k := 0; k <= arg/timedPaths && len(pmodel) > 0; k++ {
				if got := plain.Pop(&fp); got.PktID != pmodel[0] {
					t.Fatalf("step %d: plain list Pop = %d, want %d", step, got.PktID, pmodel[0])
				}
				pmodel = pmodel[1:]
			}
		}

		for k := 0; k < timedPaths; k++ {
			checkPath(t, step, "flit", &fp, &flits[k], fmodel[k], now)
			checkPath(t, step, "credit", &cp, &creds[k], cmodel[k], now)
		}
		if plain.Len() != len(pmodel) {
			t.Fatalf("step %d: plain list Len %d, model holds %d", step, plain.Len(), len(pmodel))
		}
		for j, i := 0, plain.Head(); j < plain.Len(); j, i = j+1, fp.Next(i) {
			if got := fp.Get(i).PktID; got != pmodel[j] {
				t.Fatalf("step %d: plain list holds %d at %d, want %d", step, got, j, pmodel[j])
			}
		}
		err := fp.Audit(func(visit func(*FlitList)) {
			visit(&plain)
			for k := range flits {
				visit(flits[k].Slots())
			}
		})
		if err == nil {
			err = cp.Audit(func(visit func(*List[proto.Credit])) {
				for k := range creds {
					visit(creds[k].Slots())
				}
			})
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkPoolSize(t, step, fp.Cap(), fp.Peak())
		checkPoolSize(t, step, cp.Cap(), cp.Peak())
	}
}

// timedModel is the reference for a path: its entries, oldest first.
type timedModel[T any] []Entry[T]

func (m *timedModel[T]) push(at int64, v T) { *m = append(*m, Entry[T]{V: v, At: at}) }

// popDue removes and returns the oldest value if it is due by now.
func (m *timedModel[T]) popDue(now int64) (v T, ok bool) {
	if !m.frontDue(now) {
		return v, false
	}
	v, *m = (*m)[0].V, (*m)[1:]
	return v, true
}

func (m timedModel[T]) frontDue(now int64) bool { return len(m) > 0 && m[0].At <= now }

// nextAt is the oldest entry's due cycle, math.MaxInt64 when empty; back
// the newest's, math.MinInt64 when empty.
func (m timedModel[T]) nextAt() int64 {
	if len(m) == 0 {
		return math.MaxInt64
	}
	return m[0].At
}

func (m timedModel[T]) back() int64 {
	if len(m) == 0 {
		return math.MinInt64
	}
	return m[len(m)-1].At
}

// replayPath encodes path l through its checkpoint walk, elem walking
// each value, and decodes the bytes over it.
func replayPath[T any](t *testing.T, step int, p *Pool[T], l *TimedList[T], elem func(*snapshot.Codec, *T)) {
	t.Helper()
	walk := func(c *snapshot.Codec) { l.Walk(c, p, 1+1, func(v *T) { elem(c, v) }) }
	if err := decodeWalk(snapshot.Encode(walk), walk); err != nil {
		t.Fatalf("step %d: decoding a checkpointed path: %v", step, err)
	}
}

// checkPath compares path l with its model at cycle now.
func checkPath[T comparable](t *testing.T, step int, kind string, p *Pool[T], l *TimedList[T], m timedModel[T], now int64) {
	t.Helper()
	if l.Len() != len(m) || l.Empty() != (len(m) == 0) || l.NextAt() != m.nextAt() || l.FrontDue(now) != m.frontDue(now) {
		t.Fatalf("step %d: %s path Len %d NextAt %d FrontDue %v, model %d %d %v",
			step, kind, l.Len(), l.NextAt(), l.FrontDue(now), len(m), m.nextAt(), m.frontDue(now))
	}
	at := l.nextAt
	for j, i := 0, l.Slots().Head(); j < l.Len(); j, i = j+1, p.Next(i) {
		if got := (Entry[T]{V: *p.Get(i), At: at}); got != m[j] {
			t.Fatalf("step %d: %s path entry %d is due %d, model %d", step, kind, j, got.At, m[j].At)
		}
		at = p.slot(i).succAt
	}
	if len(m) > 0 && *l.Front(p) != m[0].V {
		t.Fatalf("step %d: %s path Front differs from the model's", step, kind)
	}
}

// checkPoolSize fails when a pool holds more than its high-water mark
// rounded up to a chunk.
func checkPoolSize(t *testing.T, step, capacity, peak int) {
	t.Helper()
	if roundUp := (peak + PoolChunk - 1) / PoolChunk * PoolChunk; capacity > roundUp {
		t.Fatalf("step %d: capacity %d past the high-water mark %d rounded up", step, capacity, peak)
	}
}

// TestTimedListModel drives the paths with seeded random op streams of
// three shapes: balanced churn, bursts that cross chunk boundaries with
// replays and relinks, and credit coalescing.
func TestTimedListModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		ops := make([]byte, 200)
		for i := range ops {
			kind := byte(rng.Intn(8))
			switch round % 3 {
			case 1: // bursts, replays, relinks and drains
				kind = []byte{5, 6, 2, 4, 5, 7}[i%6]
			case 2: // mostly credits
				if rng.Intn(3) > 0 {
					kind = []byte{1, 3}[rng.Intn(2)]
				}
			}
			ops[i] = kind<<5 | byte(rng.Intn(32))
		}
		driveTimedList(t, ops)
	}
}

// FuzzTimedList is driveTimedList over arbitrary op streams.
func FuzzTimedList(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x21, 0x21, 0x24, 0x5f, 0x80, 0x60, 0xe0}) // flits and coalesced credits, a clock jump, a relink, pops
	f.Add([]byte{0xbf, 0xbf, 0xc0, 0xd0, 0x5f, 0x83, 0x86, 0xff})             // bursts past two chunks, replays of both kinds, drains
	f.Add([]byte{0x20, 0x23, 0x26, 0x29, 0xd0, 0x7f, 0x60, 0x60, 0xd3})       // credits coalescing and not, replay, pops
	f.Fuzz(driveTimedList)
}

// TestTimedListAllocatesOnlyChunks: traffic within the high-water mark —
// pushes, relinks onto a plain list and pops — takes no allocation.
func TestTimedListAllocatesOnlyChunks(t *testing.T) {
	var (
		fp    FlitPool
		cp    Pool[proto.Credit]
		wire  TimedList[proto.Flit]
		creds TimedList[proto.Credit]
		in    FlitList
		now   int64
	)
	churn := func() {
		for i := 0; i < 3*PoolChunk; i++ {
			wire.Push(&fp, now+4, proto.Flit{Seq: uint8(i)})
			creds.Push(&cp, now+4, proto.Credit{Shared: true})
			now++
		}
		now += 4
		for wire.FrontDue(now) {
			in.Link(&fp, wire.Unlink(&fp))
		}
		for !in.Empty() {
			in.Pop(&fp)
		}
		for _, ok := creds.PopDue(&cp, now); ok; _, ok = creds.PopDue(&cp, now) {
		}
	}
	churn()
	if n := testing.AllocsPerRun(20, churn); n != 0 {
		t.Fatalf("%v allocations per churn at high water, want 0", n)
	}
	if fp.Cap() != 3*PoolChunk || cp.Cap() != 3*PoolChunk {
		t.Fatalf("capacities %d, %d after holding %d entries at most, want %d", fp.Cap(), cp.Cap(), 3*PoolChunk, 3*PoolChunk)
	}
}
