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

// timedKinds is the number of op kinds driveTimedList knows.
const timedKinds = 10

// timedArgMax is the largest argument an op byte of kind carries: 25 for
// kinds 0..5, 24 for kinds 6..9.
func timedArgMax(kind int) int { return (math.MaxUint8 - kind) / timedKinds }

// timedOp is the op byte of a kind and an argument of at most
// timedArgMax(kind).
func timedOp(kind, arg int) byte {
	if arg < 0 || arg > timedArgMax(kind) {
		panic("timedOp: argument out of range")
	}
	return byte(arg*timedKinds + kind)
}

// driveTimedList replays one op stream against timedPaths flit paths and
// timedPaths credit paths, each kind threaded through one pool, a plain
// FlitList in the flit pool that due flits are relinked onto, the way a
// switch's input buffer takes its arrivals, and a landing flit path and
// landing credit path in a second pool of each kind that paths are copied
// onto, the way a worker-crossing link's receiver takes a staged epoch. A
// timedModel, a slice of entries, is the reference for every path, a slice
// for the plain list. After every op it checks each path's Len, NextAt,
// FrontDue and Front and its entries along its links, all four pools'
// accounting through Audit, and that no pool's capacity passes its
// high-water mark rounded up to a chunk.
//
// Each op byte is a kind (the byte modulo timedKinds) and an argument (the
// quotient, 0..25), whose remainder by timedPaths names path a, and whose
// bit 16 picks the credit path over the flit path for the kinds that take
// either. The kinds: push a flit on a, due 0..3 cycles after its newest
// entry; push a credit on a, due 0..1 cycles after its newest entry;
// advance the clock 0..25 cycles and pop every due flit of a; pop one due
// credit of a; relink a's due front onto the plain list; push a burst of
// flits on a at one due cycle, which crosses chunk boundaries; take path a
// through a checkpoint round trip, which must take no chunk; pop the plain
// list; publish a's pool, push onto the next path (which may take a chunk
// the published directory lacks) and copy a onto its landing path, leaving
// a as it was; free a whole and refill it with as many entries, which must
// take exactly the freed slots.
func driveTimedList(t *testing.T, ops []byte) {
	t.Helper()
	var (
		fp, fp2 FlitPool
		cp, cp2 Pool[proto.Credit]
		flits   [timedPaths]TimedList[proto.Flit]
		creds   [timedPaths]TimedList[proto.Credit]
		fmodel  [timedPaths]timedModel[proto.Flit]
		cmodel  [timedPaths]timedModel[proto.Credit]
		fland   TimedList[proto.Flit]
		cland   TimedList[proto.Credit]
		flmodel timedModel[proto.Flit]
		clmodel timedModel[proto.Credit]
		plain   FlitList
		pmodel  []uint64
		now     int64
		next    uint64
	)
	// due returns a deadline d cycles after the newest of back, or after
	// now when back is empty.
	due := func(back int64, d int64) int64 { return max(now+1, back) + d }
	newFlit := func() proto.Flit {
		next++
		return proto.Flit{PktID: next - 1, Size: 1}
	}
	newCredit := func() proto.Credit {
		next++
		return proto.Credit{VC: uint8(next % proto.NumNetVCs), Shared: next%2 == 0}
	}
	pushFlit := func(a int, at int64) {
		f := newFlit()
		flits[a].Push(&fp, at, f)
		fmodel[a].push(at, f)
	}
	for step, op := range ops {
		kind, arg := int(op)%timedKinds, int(op)/timedKinds
		a, b := arg%timedPaths, (arg+1)%timedPaths
		credit := arg&16 != 0
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
			if !credit {
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
		case 8:
			if !credit {
				copyPath(&fp, &flits[a], fmodel[a], &flits[b], &fmodel[b], newFlit(), &fp2, &fland, &flmodel)
			} else {
				copyPath(&cp, &creds[a], cmodel[a], &creds[b], &cmodel[b], newCredit(), &cp2, &cland, &clmodel)
			}
		case 9:
			if !credit {
				resetPath(t, step, &fp, &flits[a], &fmodel[a], now+1, newFlit)
			} else {
				resetPath(t, step, &cp, &creds[a], &cmodel[a], now+1, newCredit)
			}
		}

		for k := 0; k < timedPaths; k++ {
			checkPath(t, step, "flit", &fp, &flits[k], fmodel[k], now)
			checkPath(t, step, "credit", &cp, &creds[k], cmodel[k], now)
		}
		checkPath(t, step, "landing flit", &fp2, &fland, flmodel, now)
		checkPath(t, step, "landing credit", &cp2, &cland, clmodel, now)
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
		if err == nil {
			err = fp2.Audit(func(visit func(*FlitList)) { visit(fland.Slots()) })
		}
		if err == nil {
			err = cp2.Audit(func(visit func(*List[proto.Credit])) { visit(cland.Slots()) })
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkPoolSize(t, step, fp.Cap(), fp.Peak())
		checkPoolSize(t, step, cp.Cap(), cp.Peak())
		checkPoolSize(t, step, fp2.Cap(), fp2.Peak())
		checkPoolSize(t, step, cp2.Cap(), cp2.Peak())
	}
}

// copyPath publishes pool p, pushes v onto path o (model om) — which may
// take a chunk past the published directory, as a sender pushes on while
// its receiver copies — and copies path l, whose model is m, onto the
// landing path dst of pool dp, whose model dm gains m's entries.
func copyPath[T any](p *Pool[T], l *TimedList[T], m timedModel[T], o *TimedList[T], om *timedModel[T], v T, dp *Pool[T], dst *TimedList[T], dm *timedModel[T]) {
	p.Publish()
	at := max(om.back(), 0) + 1
	o.Push(p, at, v)
	om.push(at, v)
	l.CopyTo(p, dst, dp)
	*dm = append(*dm, m...)
}

// resetPath frees path l of pool p whole and refills it with as many
// values from mk, due at at: the pool's count in use must drop by the
// path's length, and the refill must take exactly the freed slots.
func resetPath[T any](t *testing.T, step int, p *Pool[T], l *TimedList[T], m *timedModel[T], at int64, mk func() T) {
	t.Helper()
	n, inUse, capacity := l.Len(), p.InUse(), p.Cap()
	freed := make(map[int32]bool, n)
	for k, i := 0, l.Slots().Head(); k < n; k, i = k+1, p.Next(i) {
		freed[i] = true
	}
	l.Reset(p)
	if !l.Empty() || p.InUse() != inUse-n {
		t.Fatalf("step %d: freeing a path of %d: Len %d, in use %d -> %d", step, n, l.Len(), inUse, p.InUse())
	}
	*m = (*m)[:0]
	for range n {
		v := mk()
		l.Push(p, at, v)
		m.push(at, v)
	}
	for k, i := 0, l.Slots().Head(); k < n; k, i = k+1, p.Next(i) {
		if !freed[i] {
			t.Fatalf("step %d: refilling a freed path of %d took slot %d, not a freed one", step, n, i)
		}
	}
	if p.Cap() != capacity {
		t.Fatalf("step %d: refilling a freed path of %d grew the pool from %d to %d slots", step, n, capacity, p.Cap())
	}
}

// timedEntry is one entry of a timedModel: a value and its due cycle.
type timedEntry[T any] struct {
	V  T
	At int64
}

// timedModel is the reference for a path: its entries, oldest first.
type timedModel[T any] []timedEntry[T]

func (m *timedModel[T]) push(at int64, v T) { *m = append(*m, timedEntry[T]{V: v, At: at}) }

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
		if got := (timedEntry[T]{V: *p.Get(i), At: at}); got != m[j] {
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
// four shapes: balanced churn, bursts that cross chunk boundaries with
// replays and relinks, credit coalescing, and a stage's life — bursts
// copied to a second pool and freed whole.
func TestTimedListModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		ops := make([]byte, 200)
		for i := range ops {
			kind := rng.Intn(timedKinds)
			switch round % 4 {
			case 1: // bursts, replays, relinks and drains
				kind = []int{5, 6, 2, 4, 5, 7}[i%6]
			case 2: // mostly credits
				if rng.Intn(3) > 0 {
					kind = []int{1, 3}[rng.Intn(2)]
				}
			case 3: // staged epochs: bursts and credits, copied, then freed
				kind = []int{5, 1, 8, 1, 8, 9, 0, 9}[i%8]
			}
			ops[i] = timedOp(kind, rng.Intn(timedArgMax(kind)+1))
		}
		driveTimedList(t, ops)
	}
}

// FuzzTimedList is driveTimedList over arbitrary op streams.
func FuzzTimedList(f *testing.F) {
	op := timedOp
	f.Add([]byte{op(0, 0), op(0, 1), op(0, 2), op(1, 1), op(1, 1), op(1, 4), op(2, 25), op(4, 0), op(3, 0), op(7, 0)}) // flits and coalesced credits, a clock jump, a relink, pops
	f.Add([]byte{op(5, 25), op(5, 25), op(5, 13), op(6, 0), op(6, 16), op(2, 25), op(4, 3), op(4, 6), op(7, 24)})      // bursts that fill a chunk and cross into the next, replays of both kinds, drains
	f.Add([]byte{op(1, 0), op(1, 3), op(1, 6), op(1, 9), op(6, 16), op(3, 25), op(3, 0), op(3, 0), op(6, 19)})         // credits coalescing and not, replay, pops
	f.Add([]byte{op(5, 24), op(5, 24), op(8, 0), op(1, 16), op(8, 16), op(9, 0), op(5, 3), op(9, 16), op(8, 3)})       // a staged burst copied and freed, credits too, refills
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
