package fault

import (
	"strings"
	"testing"
)

// TestValidateDuplicateStashFail: listing the same switch.port@cycle twice
// would double-fire the bank-failure event.
func TestValidateDuplicateStashFail(t *testing.T) {
	p := Plan{StashFailures: []StashFail{
		{Switch: 0, Port: 1, At: 5000},
		{Switch: 3, Port: 0, At: 9000},
		{Switch: 0, Port: 1, At: 5000},
	}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate stash failure accepted: %v", err)
	}
	// Same bank at a different cycle is a legitimate repeat failure.
	ok := Plan{StashFailures: []StashFail{
		{Switch: 0, Port: 1, At: 5000},
		{Switch: 0, Port: 1, At: 9000},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("distinct-cycle repeat rejected: %v", err)
	}
}

func TestStashFailNote(t *testing.T) {
	in := NewInjector(Plan{StashFailures: []StashFail{{Switch: 2, Port: 1, At: 5000}}})
	// The failure sits inside the stall window, or in the equally long
	// window just before it: both plausibly explain a delivery lull.
	for _, w := range [][2]int64{{4000, 6000}, {5500, 7000}} {
		if note := in.StashFailNote(w[0], w[1]); !strings.Contains(note, "sw2.1@5000") {
			t.Errorf("window %v: note %q", w, note)
		}
	}
	// Long past the failure, the note must clear so real stalls surface.
	if note := in.StashFailNote(9000, 10000); note != "" {
		t.Errorf("stale note %q", note)
	}
	var nilIn *Injector
	if nilIn.StashFailNote(0, 1) != "" {
		t.Error("nil injector produced a note")
	}
}
