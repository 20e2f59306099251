package buffer

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"stashsim/internal/proto"
	"stashsim/internal/snapshot"
)

// driveFlitPool replays one op stream against poolLists index lists over
// one FlitPool and checks them, after every op, against plain slices: each
// list's order along its links, Len and Front, the pool's accounting
// through Audit, and that its capacity never passes its high-water mark
// rounded up to a chunk. Each op byte is a kind (top three bits) and an
// argument (low five), whose low bits name list a and the next two list b:
// push one on a; pop a; relink a's front onto b; read a's front, then push
// a chunk's worth on b and read the same pointer again (chunks must not
// move); push a burst on a; a checkpoint round trip of a (see
// checkpointList); pop up to the argument's worth of a.
func driveFlitPool(t *testing.T, ops []byte) {
	t.Helper()
	const poolLists = 4
	var (
		pool  FlitPool
		lists [poolLists]FlitList
		model [poolLists][]uint64
		next  uint64
		push  = func(a int) {
			lists[a].Push(&pool, proto.Flit{PktID: next, Size: 1})
			model[a] = append(model[a], next)
			next++
		}
	)
	all := func(visit func(*FlitList)) {
		for k := range lists {
			visit(&lists[k])
		}
	}
	for step, op := range ops {
		kind, arg := op>>5, int(op&31)
		a, b := arg%poolLists, (arg/poolLists)%poolLists
		switch kind {
		case 0, 1:
			push(a)
		case 2:
			if len(model[a]) > 0 {
				if got := lists[a].Pop(&pool); got.PktID != model[a][0] {
					t.Fatalf("step %d: Pop = %d, want %d", step, got.PktID, model[a][0])
				}
				model[a] = model[a][1:]
			}
		case 3:
			if len(model[a]) > 0 {
				lists[b].Link(&pool, lists[a].Unlink(&pool))
				model[b] = append(model[b], model[a][0])
				model[a] = model[a][1:]
			}
		case 4:
			if len(model[a]) > 0 {
				f := lists[a].Front(&pool)
				for i := 0; i < PoolChunk; i++ {
					push(b)
				}
				if f != lists[a].Front(&pool) || f.PktID != model[a][0] {
					t.Fatalf("step %d: a front pointer moved when the pool grew", step)
				}
			}
		case 5:
			for i := 0; i <= arg; i++ {
				push(a)
			}
		case 6:
			checkpointList(t, step, &pool, &lists[a], arg)
		case 7:
			for len(model[a]) > 0 && arg > 0 {
				lists[a].Pop(&pool)
				model[a] = model[a][1:]
				arg--
			}
		}

		queued := 0
		for k := range lists {
			queued += len(model[k])
			if lists[k].Len() != len(model[k]) || lists[k].Empty() != (len(model[k]) == 0) {
				t.Fatalf("step %d: list %d Len %d, model holds %d", step, k, lists[k].Len(), len(model[k]))
			}
			l := &lists[k]
			for j, i := 0, l.Head(); j < l.Len(); j, i = j+1, pool.Next(i) {
				if got := pool.Get(i).PktID; got != model[k][j] {
					t.Fatalf("step %d: list %d holds %d at %d, want %d", step, k, got, j, model[k][j])
				}
			}
			if len(model[k]) > 0 && l.Front(&pool) != pool.Get(l.Head()) {
				t.Fatalf("step %d: list %d Front is not its Head", step, k)
			}
		}
		if err := pool.Audit(all); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		roundUp := (pool.Peak() + PoolChunk - 1) / PoolChunk * PoolChunk
		if pool.InUse() != queued || pool.Cap() > roundUp {
			t.Fatalf("step %d: %d slots in use for %d flits, capacity %d past the high-water mark %d rounded up",
				step, pool.InUse(), queued, pool.Cap(), pool.Peak())
		}
	}
}

// checkpointList takes list l of pool p through a checkpoint round trip:
// it encodes the list and decodes the bytes over it while it still holds
// its flits, so the walk must empty it first, and then must take no chunk
// after its Grow and leave as many slots in use. The same bytes cut at a
// length arg and step pick must fail the decode, not panic; the whole
// bytes then put the list back. An odd arg decodes through the owner's
// push path of ReplayList, an even one through the list's own.
func checkpointList(t *testing.T, step int, p *FlitPool, l *FlitList, arg int) {
	t.Helper()
	var push func(proto.Flit)
	if arg&1 != 0 {
		push = func(f proto.Flit) { l.Push(p, f) }
	}
	walk := func(c *snapshot.Codec) { ReplayList(c, p, l, push) }
	data := snapshot.Encode(walk)
	capacity, inUse := p.Cap(), p.InUse()
	if err := decodeWalk(data, walk); err != nil {
		t.Fatalf("step %d: decoding a checkpointed list: %v", step, err)
	}
	if p.Cap() != capacity || p.InUse() != inUse {
		t.Fatalf("step %d: decoding a %d-flit list took capacity %d to %d and slots in use %d to %d",
			step, l.Len(), capacity, p.Cap(), inUse, p.InUse())
	}
	const header = 4 + 2 + 8 // magic, version, total length
	cut := append([]byte(nil), data[:header+(arg+step)%(len(data)-header)]...)
	binary.LittleEndian.PutUint64(cut[6:], uint64(len(cut)))
	if err := decodeWalk(cut, walk); err == nil {
		t.Fatalf("step %d: a checkpointed list cut to %d of its %d bytes decoded", step, len(cut), len(data))
	}
	if err := decodeWalk(data, walk); err != nil {
		t.Fatalf("step %d: decoding a checkpointed list again: %v", step, err)
	}
}

// decodeWalk runs walk over data as a decoding walk and returns its error.
func decodeWalk(data []byte, walk func(*snapshot.Codec)) error {
	c, err := snapshot.NewDecoder(data)
	if err != nil {
		return err
	}
	walk(c)
	return c.Close()
}

// TestFlitPoolModel drives the pool with seeded random op streams of three
// shapes: balanced churn, bursts that cross chunk boundaries, and relinks.
func TestFlitPoolModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		ops := make([]byte, 200)
		for i := range ops {
			kind := byte(rng.Intn(8))
			switch round % 3 {
			case 1: // bursts and drains
				kind = []byte{5, 7, 4, 6}[i%4]
			case 2: // mostly relinks
				if rng.Intn(3) > 0 {
					kind = 3
				}
			}
			ops[i] = kind<<5 | byte(rng.Intn(32))
		}
		driveFlitPool(t, ops)
	}
}

// FuzzFlitPool is driveFlitPool over arbitrary op streams.
func FuzzFlitPool(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x60, 0x41, 0x42})       // push on three lists, relink a front on, pop
	f.Add([]byte{0xbf, 0xbf, 0x84, 0xc0, 0xff, 0xc1, 0xe3}) // bursts past two chunks, a pinned front, replays, a drain
	f.Add([]byte{0xa5, 0x65, 0x65, 0x6a, 0xc5, 0xca})       // relinks to and fro, then replays
	f.Fuzz(driveFlitPool)
}

// TestFlitPoolAllocatesOnlyChunks: churn within the high-water mark takes
// no allocation, and a list's relinks take none either.
func TestFlitPoolAllocatesOnlyChunks(t *testing.T) {
	var (
		pool FlitPool
		a, b FlitList
	)
	churn := func() {
		for i := 0; i < 3*PoolChunk; i++ {
			a.Push(&pool, proto.Flit{Seq: uint8(i)})
		}
		for !a.Empty() {
			b.Link(&pool, a.Unlink(&pool))
		}
		for !b.Empty() {
			b.Pop(&pool)
		}
	}
	churn()
	if n := testing.AllocsPerRun(20, churn); n != 0 {
		t.Fatalf("%v allocations per churn at high water, want 0", n)
	}
	if pool.Cap() != 3*PoolChunk {
		t.Fatalf("capacity %d after holding %d flits at most, want %d", pool.Cap(), 3*PoolChunk, 3*PoolChunk)
	}
}
