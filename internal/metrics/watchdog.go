package metrics

import (
	"fmt"
	"io"

	"stashsim/internal/sim"
)

// maxStallDumps bounds how many stall dumps a watchdog writes: a hung run
// repeats the same state every window.
const maxStallDumps = 3

// Watchdog detects zero-delivery windows: if a full Window of cycles
// passes in which the network delivered nothing while work was pending,
// it writes a diagnostic dump of every non-idle component instead of
// letting the simulation spin silently. It is a barrier observer
// (network.Observer) that names only its window boundaries. A nil
// *Watchdog is a no-op.
type Watchdog struct {
	// Window is the stall-detection window in cycles.
	//
	//stashsim:derived -- configuration, set by the wiring that attaches the watchdog
	Window int64
	// Out receives the diagnostic dumps.
	//
	//stashsim:derived -- configuration, set by the wiring that attaches the watchdog
	Out io.Writer
	// Delivered returns a monotone count of delivered flits/packets. It
	// must advance whenever traffic makes end-to-end progress, and must
	// not be gated by measurement warmup.
	//
	//stashsim:derived -- configuration, set by the wiring that attaches the watchdog
	Delivered func() int64
	// Pending reports whether undelivered work exists (queued or
	// in-flight). A quiet network with nothing pending is not a stall.
	//
	//stashsim:derived -- configuration, set by the wiring that attaches the watchdog
	Pending func() bool
	// Dump writes the per-component diagnostic state (e.g. DumpState of
	// every non-idle switch).
	//
	//stashsim:derived -- configuration, set by the wiring that attaches the watchdog
	Dump func(w io.Writer)
	// Note, when non-nil, is consulted before declaring a stall: a
	// nonempty string names a benign cause for the zero-delivery window
	// (e.g. a fault plan's link outage), which is reported as a one-line
	// note instead of a stall dump. The arguments are the window bounds.
	//
	//stashsim:derived -- configuration, set by the wiring that attaches the watchdog
	Note func(from, to int64) string

	windowStart   int64
	started       bool
	lastDelivered int64
	stalled       bool
	// Stalls counts detected zero-delivery windows.
	Stalls int64
	// Suppressed counts zero-delivery windows explained away by Note.
	Suppressed int64
}

// Stalled reports whether the most recent completed window was an
// unexplained zero-delivery window; it clears as soon as a window sees
// deliveries again. The telemetry snapshot copies it at the barrier, and
// that copy is the /healthz liveness signal.
//
//stashsim:phase serial -- reads the unsynchronized window bookkeeping
func (w *Watchdog) Stalled() bool {
	if w == nil {
		return false
	}
	return w.stalled
}

// NextEventAt names the first cycle it is asked about (initialization)
// and from then on each window boundary.
//
//stashsim:phase serial -- reads the unsynchronized window bookkeeping
func (w *Watchdog) NextEventAt(from int64) int64 {
	if w == nil {
		return sim.Never
	}
	if w.started {
		return max(from, w.windowStart+w.Window)
	}
	return from
}

// AtBarrier closes the window that ends after cycle now (or, on the first
// call, opens the first one).
//
//stashsim:phase serial -- window bookkeeping is unsynchronized
func (w *Watchdog) AtBarrier(now int64) {
	if w == nil {
		return
	}
	if !w.started {
		w.started = true
		w.windowStart = now
		w.lastDelivered = w.Delivered()
		return
	}
	d := w.Delivered()
	if d != w.lastDelivered || w.Pending == nil || !w.Pending() {
		w.stalled = false
	}
	if d == w.lastDelivered && w.Pending != nil && w.Pending() {
		if w.Note != nil {
			if note := w.Note(w.windowStart, now); note != "" {
				w.Suppressed++
				w.stalled = false
				if w.Out != nil {
					fmt.Fprintf(w.Out, "watchdog: no deliveries in %d cycles at cycle %d, explained: %s\n",
						w.Window, now, note)
				}
				w.lastDelivered = d
				w.windowStart = now
				return
			}
		}
		w.Stalls++
		w.stalled = true
		if w.Out != nil && w.Stalls <= maxStallDumps {
			fmt.Fprintf(w.Out, "watchdog: no deliveries in %d cycles at cycle %d with work pending (stall #%d); non-idle state:\n",
				w.Window, now, w.Stalls)
			if w.Dump != nil {
				w.Dump(w.Out)
			}
		}
	}
	w.lastDelivered = d
	w.windowStart = now
}
