package buffer

import (
	"math"
	"slices"
	"testing"
)

// newRetention builds an empty window of rtt cycles on its own words.
func newRetention(rtt int64) Retention {
	return NewRetention(rtt, make([]uint64, RetentionWords(rtt)))
}

// driveRetention replays one op stream against a Retention and a slice of
// deadlines, its reference. The first byte sets the window, 1 to 256
// cycles: at least one word, and more than one for most. Each later op
// byte is a kind (top two bits) and an argument (low six):
//   - send: release what is due now, push now+span, move on a cycle — an
//     output port's step;
//   - push: a deadline arg cycles past the newest (or past now when
//     empty);
//   - release: advance the clock by arg cycles and release what is due;
//   - leap: advance it by arg+2 windows and 64 cycles, past every deadline
//     held, then release, which must empty the window.
//
// A push, and after a push past now+span a send too, must panic exactly
// when the window cannot hold its deadline. After every op it compares
// Len, NextAt, FrontDue now and one window on, and the deadlines Each
// visits, in order.
func driveRetention(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) == 0 {
		return
	}
	span := int64(ops[0]) + 1
	r := newRetention(span)
	var (
		model []int64
		now   int64
	)
	release := func() {
		r.Release(now)
		for len(model) > 0 && model[0] <= now {
			model = model[1:]
		}
	}
	for i, op := range ops[1:] {
		// push pushes at, or checks that Push panics when the window
		// cannot hold it.
		push := func(at int64) {
			fits := len(model) == 0 || at > model[len(model)-1] && at-model[0] < span
			if r.Fits(at) != fits {
				t.Fatalf("op %d: Fits(%d) = %v with %v held in a window of %d", i, at, !fits, model, span)
			}
			if !fits {
				mustPanic(t, func() { r.Push(at) })
				return
			}
			r.Push(at)
			model = append(model, at)
		}
		arg := int64(op & 63)
		switch op >> 6 {
		case 0:
			release()
			push(now + span)
			now++
		case 1:
			if len(model) > 0 {
				push(model[len(model)-1] + arg)
			} else {
				push(now + 1 + arg)
			}
		case 2:
			now += arg
			release()
		case 3:
			now += (arg+2)*span + 64
			if release(); len(model) > 0 {
				t.Fatalf("op %d: a leap past every deadline left %v held at %d", i, model, now)
			}
		}
		if r.Len() != len(model) {
			t.Fatalf("op %d: Len %d, want %d", i, r.Len(), len(model))
		}
		next := int64(math.MaxInt64)
		if len(model) > 0 {
			next = model[0]
		}
		if r.NextAt() != next {
			t.Fatalf("op %d: NextAt %d, want %d", i, r.NextAt(), next)
		}
		for _, at := range []int64{now, now + span} {
			if due := len(model) > 0 && model[0] <= at; r.FrontDue(at) != due {
				t.Fatalf("op %d: FrontDue(%d) = %v, want %v", i, at, !due, due)
			}
		}
		var walked []int64
		r.Each(func(at int64) { walked = append(walked, at) })
		if !slices.Equal(walked, model) {
			t.Fatalf("op %d: Each visits %v, want %v", i, walked, model)
		}
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f()
}

// FuzzRetention checks the retention bitmap against a slice of deadlines
// (see driveRetention): Len, NextAt, FrontDue and walk order after pushes
// and releases at arbitrary cycles.
func FuzzRetention(f *testing.F) {
	f.Add([]byte{63, 0, 0, 0, 0x82, 0, 0, 0x90, 0})                    // a full word: sends, a release, more sends
	f.Add([]byte{129, 0, 0x41, 0x7F, 0x40, 0x81, 0xC0, 0x45})          // three words: pushes past the front, a leap
	f.Add([]byte{0, 0, 0, 0x40, 0x41, 0x81, 0})                        // a one-cycle window: a repeated deadline panics
	f.Add([]byte{200, 0x7F, 0x7F, 0x7F, 0x7F, 0xBF, 0x80, 0x7F, 0x41}) // wrap-around across four words
	f.Fuzz(driveRetention)
}

// TestRetentionPortSteps runs a port's schedule: one send a cycle for
// many windows, with idle stretches, against the reference.
func TestRetentionPortSteps(t *testing.T) {
	ops := []byte{129}
	for i := 0; i < 2000; i++ {
		switch {
		case i%97 == 0:
			ops = append(ops, 0x80|byte(i%64)) // idle for a while
		case i%331 == 0:
			ops = append(ops, 0xC0) // idle for a whole window
		default:
			ops = append(ops, 0)
		}
	}
	driveRetention(t, ops)
}
