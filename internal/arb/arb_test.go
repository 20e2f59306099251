package arb

import (
	"testing"
	"testing/quick"
)

func TestRoundRobinFairness(t *testing.T) {
	r := NewRoundRobin(4)
	counts := make([]int, 4)
	for i := 0; i < 400; i++ {
		counts[r.GrantMask(0xF)]++
	}
	for i, c := range counts {
		if c != 100 {
			t.Fatalf("requester %d won %d of 400", i, c)
		}
	}
}

func TestRoundRobinSkipsIdle(t *testing.T) {
	r := NewRoundRobin(3)
	for i := 0; i < 10; i++ {
		if w := r.GrantMask(1 << 1); w != 1 {
			t.Fatalf("granted %d, want 1", w)
		}
	}
}

func TestRoundRobinNoRequests(t *testing.T) {
	r := NewRoundRobin(3)
	if w := r.GrantMask(0); w != -1 {
		t.Fatalf("granted %d with no requests", w)
	}
	// Bits past the arbiter's requesters are not requests.
	if w := r.GrantMask(1 << 3); w != -1 {
		t.Fatalf("granted %d for a bit past the 3 requesters", w)
	}
}

func TestRoundRobinPointerAdvances(t *testing.T) {
	r := NewRoundRobin(2)
	a := r.GrantMask(3)
	b := r.GrantMask(3)
	if a == b {
		t.Fatal("same requester won twice in a row under full load")
	}
}

// TestGrantMaskMatchesGrant checks the mask arbiter against the scan loop
// it replaced (refGrant) on an 8-requester arbiter.
func TestGrantMaskMatchesGrant(t *testing.T) {
	if err := quick.Check(func(mask uint8, seed uint8) bool {
		n := 8
		a := NewRoundRobin(n)
		b := NewRoundRobin(n)
		// Desynchronize both the same way.
		for i := 0; i < int(seed%7); i++ {
			refGrant(&a, 0xFF)
			b.GrantMask(0xFF)
		}
		return refGrant(&a, uint64(mask)) == b.GrantMask(uint64(mask)) && a == b
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdvance(t *testing.T) {
	r := NewRoundRobin(3)
	r.Advance(2)
	if r.Next() != 0 {
		t.Fatalf("Advance(2) left pointer at %d", r.Next())
	}
	r.Advance(0)
	if r.Next() != 1 {
		t.Fatalf("Advance(0) left pointer at %d", r.Next())
	}
}

// checkMatching verifies an allocation is a valid matching for req.
func checkMatching(t *testing.T, req []uint64, grants []int) {
	t.Helper()
	usedIn := map[int]bool{}
	for o, i := range grants {
		if i < 0 {
			continue
		}
		if req[i]&(1<<uint(o)) == 0 {
			t.Fatalf("output %d granted to non-requesting input %d", o, i)
		}
		if usedIn[i] {
			t.Fatalf("input %d matched twice", i)
		}
		usedIn[i] = true
	}
}

func TestSeparableValidMatching(t *testing.T) {
	s := NewSeparable(4, 4)
	if err := quick.Check(func(r0, r1, r2, r3 uint8) bool {
		req := []uint64{uint64(r0 & 0xF), uint64(r1 & 0xF), uint64(r2 & 0xF), uint64(r3 & 0xF)}
		grants := s.Allocate(req)
		usedIn := map[int]bool{}
		for o, i := range grants {
			if i < 0 {
				continue
			}
			if req[i]&(1<<uint(o)) == 0 || usedIn[i] {
				return false
			}
			usedIn[i] = true
		}
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSeparableWorkConserving(t *testing.T) {
	// With a single requesting input, its request must be granted.
	s := NewSeparable(4, 4)
	for o := 0; o < 4; o++ {
		req := []uint64{0, 1 << uint(o), 0, 0}
		grants := s.Allocate(req)
		if grants[o] != 1 {
			t.Fatalf("lone request for output %d not granted: %v", o, grants)
		}
	}
}

func TestSeparablePermutationFullMatch(t *testing.T) {
	// A permutation request pattern must be fully matched.
	s := NewSeparable(4, 4)
	req := []uint64{1 << 2, 1 << 0, 1 << 3, 1 << 1}
	grants := s.Allocate(req)
	matched := 0
	for _, i := range grants {
		if i >= 0 {
			matched++
		}
	}
	if matched != 4 {
		t.Fatalf("permutation matched %d of 4: %v", matched, grants)
	}
	checkMatching(t, req, grants)
}

func TestSeparableHotOutputFairness(t *testing.T) {
	// All inputs requesting one output: over N rounds each wins equally.
	s := NewSeparable(4, 4)
	req := []uint64{1, 1, 1, 1}
	counts := make([]int, 4)
	for round := 0; round < 400; round++ {
		grants := s.Allocate(req)
		if grants[0] < 0 {
			t.Fatal("hot output not granted")
		}
		counts[grants[0]]++
	}
	for i, c := range counts {
		if c < 80 || c > 120 {
			t.Fatalf("input %d won %d of 400 (unfair)", i, c)
		}
	}
}

func TestSeparableConflictResolution(t *testing.T) {
	// Two inputs both requesting outputs {0,1}: both should be served in
	// one pass (input-stage conflict resolution finds the 2-matching at
	// least sometimes; over rounds, throughput must average > 1).
	s := NewSeparable(2, 2)
	req := []uint64{3, 3}
	total := 0
	for round := 0; round < 100; round++ {
		grants := s.Allocate(req)
		for _, i := range grants {
			if i >= 0 {
				total++
			}
		}
	}
	if total < 150 {
		t.Fatalf("separable allocator matched only %d of 200 possible", total)
	}
}
