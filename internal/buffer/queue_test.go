package buffer

import (
	"math"
	"math/rand"
	"testing"
)

// driveQueues replays one op stream against a Queue[int] and a Timed[int]
// and checks both, after every op, against plain slices: order, Len, every
// At(i), Front/Back, the header mirror nextAt against the front entry's At,
// and that PopDue hands out exactly the due entries. Each op byte is a kind
// (top two bits) and an argument (low six): push one, push a burst (what
// grows the rings, usually with a non-zero head), pop, advance the clock.
func driveQueues(t *testing.T, ops []byte) {
	t.Helper()
	const latency = 5 // Timed is a fixed-latency pipeline: deadlines never decrease
	var (
		q     Queue[int]
		tq    Timed[int]
		mq    []int
		mt    []Entry[int]
		now   int64
		next  int
		push  = func() { q.Push(next); mq = append(mq, next); next++ }
		pushT = func() {
			tq.Push(now+latency, next)
			mt = append(mt, Entry[int]{V: next, At: now + latency})
			next++
		}
	)
	for step, op := range ops {
		switch kind, arg := op>>6, int(op&63); kind {
		case 0:
			push()
			pushT()
		case 1:
			// An even burst reserves its room first: the pushes then
			// must not reallocate.
			reserved := arg%2 == 0
			if reserved {
				q.Grow(arg + 1)
				tq.Grow(arg + 1)
			}
			qcap, tcap := len(q.buf), len(tq.buf)
			for i := 0; i <= arg; i++ {
				push()
				pushT()
			}
			if reserved && (len(q.buf) != qcap || len(tq.buf) != tcap) {
				t.Fatalf("step %d: a burst of %d reallocated after Grow", step, arg+1)
			}
		case 2:
			for i := 0; i <= arg%8 && len(mq) > 0; i++ {
				if got := q.Pop(); got != mq[0] {
					t.Fatalf("step %d: Pop = %d, want %d", step, got, mq[0])
				}
				mq = mq[1:]
			}
		case 3:
			now += int64(arg % 8)
			for {
				due := len(mt) > 0 && mt[0].At <= now
				if tq.FrontDue(now) != due {
					t.Fatalf("step %d: FrontDue(%d) = %v with front %+v", step, now, !due, mt[:min(1, len(mt))])
				}
				v, ok := tq.PopDue(now)
				if ok != due {
					t.Fatalf("step %d: PopDue(%d) ok = %v, model front %+v", step, now, ok, mt[:min(1, len(mt))])
				}
				if !ok {
					break
				}
				if v != mt[0].V {
					t.Fatalf("step %d: PopDue = %d, want %d", step, v, mt[0].V)
				}
				mt = mt[1:]
			}
		}

		if q.Len() != len(mq) || q.Empty() != (len(mq) == 0) {
			t.Fatalf("step %d: Queue Len %d Empty %v, model holds %d", step, q.Len(), q.Empty(), len(mq))
		}
		for i, want := range mq {
			if got := *q.At(i); got != want {
				t.Fatalf("step %d: Queue.At(%d) = %d, want %d", step, i, got, want)
			}
		}
		if len(mq) > 0 && q.Front() != q.At(0) {
			t.Fatalf("step %d: Queue.Front is not At(0)", step)
		}

		if tq.Len() != len(mt) {
			t.Fatalf("step %d: Timed Len %d, model holds %d", step, tq.Len(), len(mt))
		}
		for i, want := range mt {
			if got := *tq.At(i); got != want {
				t.Fatalf("step %d: Timed.At(%d) = %+v, want %+v", step, i, got, want)
			}
		}
		if len(mt) == 0 {
			if tq.NextAt() != math.MaxInt64 {
				t.Fatalf("step %d: empty Timed NextAt = %d", step, tq.NextAt())
			}
			continue
		}
		if front := tq.buf[tq.head].At; tq.nextAt != front || tq.NextAt() != mt[0].At {
			t.Fatalf("step %d: nextAt mirror %d, front entry %d, model front %d", step, tq.nextAt, front, mt[0].At)
		}
	}
}

// TestQueueModel drives the two queues with seeded random op streams of
// three shapes: balanced churn, growth bursts after partial drains (the
// doubling copy must unwrap a ring whose head is not zero), and long drains.
func TestQueueModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		ops := make([]byte, 300)
		for i := range ops {
			kind := byte(rng.Intn(4))
			switch round % 3 {
			case 1: // fill a little, drain a little, then burst
				kind = []byte{0, 2, 1, 3}[i%4]
			case 2: // mostly draining
				if rng.Intn(3) > 0 {
					kind = 2 + byte(rng.Intn(2))
				}
			}
			ops[i] = kind<<6 | byte(rng.Intn(64))
		}
		driveQueues(t, ops)
	}
}

// FuzzQueue is driveQueues over arbitrary op streams.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x82, 0x7f, 0xc7, 0xc7})       // push 3, pop 3, burst 64 from head 3, drain
	f.Add([]byte{0x47, 0x81, 0x47, 0x81, 0x47, 0x81, 0x7f, 0xc1}) // grow 8 -> 16 -> 32 -> 128 with the head moving
	f.Add([]byte{0xc7, 0x00, 0xc4, 0xc1, 0x00, 0xc7})             // entries coming due one clock step at a time
	f.Fuzz(driveQueues)
}

// TestGrowAllocatesOnce: a decoded count reserves its ring in one
// allocation, whatever the count.
func TestGrowAllocatesOnce(t *testing.T) {
	for _, n := range []int{1, 9, 100} {
		allocs := testing.AllocsPerRun(10, func() {
			var q Queue[int]
			var tq Timed[int]
			q.Grow(n)
			tq.Grow(n)
			for i := 0; i < n; i++ {
				q.Push(i)
				tq.Push(int64(i), i)
			}
		})
		if allocs != 2 {
			t.Fatalf("Grow(%d) then %d pushes: %v allocations, want one per ring", n, n, allocs)
		}
	}
}

// TestQueuesAllocateOnlyWhileGrowing: once at their high-water capacity the
// rings recycle their backing arrays, wrapped or not.
func TestQueuesAllocateOnlyWhileGrowing(t *testing.T) {
	var q Queue[int]
	var tq Timed[int]
	const high = 100
	now := int64(0)
	churn := func() {
		for i := 0; i < high; i++ {
			q.Push(i)
			tq.Push(now, i)
		}
		now++
		for i := 0; i < high; i++ {
			q.Pop()
			if _, ok := tq.PopDue(now); !ok {
				t.Fatal("a due entry was not popped")
			}
		}
	}
	for i := 0; i < 3; i++ { // a head that is not zero, so every churn wraps
		q.Push(i)
		q.Pop()
		tq.Push(now, i)
		tq.PopDue(now)
	}
	churn()
	if n := testing.AllocsPerRun(20, churn); n != 0 {
		t.Fatalf("%v allocations per churn at high water, want 0", n)
	}
}
