package arb

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// refGrant is the scan loop RoundRobin granted by before it picked from
// the mask: try each requester from the pointer in turn.
func refGrant(r *RoundRobin, req uint64) int {
	n := int(r.n)
	for i := 0; i < n; i++ {
		k := int(r.next) + i
		if k >= n {
			k -= n
		}
		if req&(1<<uint(k)) != 0 {
			r.next = uint8(k + 1)
			if int(r.next) == n {
				r.next = 0
			}
			return k
		}
	}
	return -1
}

// refAllocate is the loop Separable allocated by before it transposed the
// request masks: each output scans the inputs from its pointer for a
// request, then each input accepts one provisional grant by refGrant.
func refAllocate(s *Separable, req []uint64) []int {
	prov := make([]int, len(s.out))
	won := make([]uint64, len(s.in))
	for o := range s.out {
		prov[o] = -1
		a := &s.out[o]
		for k := 0; k < len(req); k++ {
			idx := int(a.next) + k
			if idx >= len(req) {
				idx -= len(req)
			}
			if req[idx]&(1<<uint(o)) != 0 {
				prov[o] = idx
				won[idx] |= 1 << uint(o)
				break
			}
		}
	}
	for i := range won {
		if won[i] == 0 {
			continue
		}
		o := refGrant(&s.in[i], won[i])
		for oo := range prov {
			if oo != o && won[i]&(1<<uint(oo)) != 0 {
				prov[oo] = -1
			}
		}
		a := &s.out[o]
		a.next = uint8(i + 1)
		if int(a.next) == len(req) {
			a.next = 0
		}
	}
	return prov
}

// pointers lists every arbiter pointer of an allocator, outputs first.
func pointers(s *Separable) []int {
	var p []int
	for _, a := range append(slices.Clone(s.out), s.in...) {
		p = append(p, int(a.next))
	}
	return p
}

// FuzzSeparable diffs the mask allocator against refAllocate, and
// GrantMask against refGrant, over allocators of up to 64 inputs and 64
// outputs started from random pointers: every round's grants and every
// pointer after it must agree. The request masks come from the seed, and
// stray bits past the outputs are requested too, which neither may grant.
func FuzzSeparable(f *testing.F) {
	f.Add(uint8(5), uint8(5), uint64(1), uint8(20))
	f.Add(uint8(64), uint8(64), uint64(7), uint8(8))
	f.Add(uint8(1), uint8(64), uint64(3), uint8(30))
	f.Add(uint8(63), uint8(2), uint64(9), uint8(30))
	f.Fuzz(func(t *testing.T, numIn, numOut uint8, seed uint64, rounds uint8) {
		nIn, nOut := int(numIn)%64+1, int(numOut)%64+1
		rng := rand.New(rand.NewPCG(seed, uint64(nIn)<<8|uint64(nOut)))
		got, want := NewSeparable(nIn, nOut), NewSeparable(nIn, nOut)
		for _, s := range []*Separable{got, want} {
			r := rand.New(rand.NewPCG(seed, 0))
			for i := range s.out {
				s.out[i].next = uint8(r.IntN(nIn))
			}
			for i := range s.in {
				s.in[i].next = uint8(r.IntN(nOut))
			}
		}
		req := make([]uint64, nIn)
		for round := 0; round < int(rounds)%64+1; round++ {
			density := rng.Uint64() // per-round sparsity: AND of 0..3 draws
			for i := range req {
				req[i] = rng.Uint64()
				for k := density % 4; k > 0; k-- {
					req[i] &= rng.Uint64()
				}
			}
			g, w := got.Allocate(req), refAllocate(want, req)
			if !slices.Equal(g, w) {
				t.Fatalf("round %d (%dx%d): grants %v, reference %v", round, nIn, nOut, g, w)
			}
			if gp, wp := pointers(got), pointers(want); !slices.Equal(gp, wp) {
				t.Fatalf("round %d (%dx%d): pointers %v, reference %v", round, nIn, nOut, gp, wp)
			}
			a, b := got.in[0], want.in[0]
			if x, y := a.GrantMask(req[0]), refGrant(&b, req[0]); x != y || a != b {
				t.Fatalf("round %d: GrantMask %d (pointer %d), reference %d (pointer %d)", round, x, a.next, y, b.next)
			}
		}
	})
}
