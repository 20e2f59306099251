package core

import (
	"strings"
	"testing"

	"stashsim/internal/proto"
	"stashsim/internal/sim"
)

// The core package panics only on contract violations that indicate a
// simulator bug, never on bad input. The panicstyle analyzer enforces the
// "pkg:"-prefixed constant message; these tests pin down that each guard
// actually fires and carries its documented message.
func TestCorePanicPaths(t *testing.T) {
	newSwitch := func() *Switch {
		cfg := TinyConfig()
		cfg.Mode = StashE2E
		return NewSwitch(0, cfg, sim.NewRNG(1), nil)
	}
	cases := []struct {
		name string
		want string
		run  func()
	}{
		{
			name: "zero-latency link",
			want: "core: link latency must be at least one cycle",
			run:  func() { NewLink(0) },
		},
		{
			name: "drop with no due flit",
			want: "core: DropFlit with no due flit",
			run:  func() { NewLink(1).DropFlit(0) },
		},
		{
			name: "non-head flit at idle input VC",
			want: "core: non-head flit at idle input VC",
			run: func() {
				s := newSwitch()
				// A body flit can only appear at an idle VC if the wormhole
				// latch state was corrupted; inject one directly.
				s.in[0].buf.Push(proto.Flit{VC: 0, Size: 1})
				s.stepRowBus(0, &s.in[0])
			},
		},
		{
			name: "location message for untracked packet",
			want: "core: location message for untracked packet",
			run: func() {
				s := newSwitch()
				s.onLocation(0, sbMsg{kind: sbLocation, pktID: 99, dst: 0})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic")
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("panicked with %T (%v), want string", r, r)
				}
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q does not contain %q", msg, tc.want)
				}
				if !strings.HasPrefix(msg, "core: ") {
					t.Fatalf("panic %q is not pkg-prefixed (panicstyle contract)", msg)
				}
			}()
			tc.run()
		})
	}
}
