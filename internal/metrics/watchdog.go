package metrics

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Watchdog detects zero-delivery windows: if a full Window of cycles
// passes in which the network delivered nothing while work was pending,
// it writes a diagnostic dump of every non-idle component instead of
// letting the simulation spin silently. It is polled once per cycle by
// the driving loop and does real work only at window boundaries. A nil
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
	// MaxDumps bounds how many stall dumps are written (0 = 3).
	//
	//stashsim:derived -- configuration, set by the wiring that attaches the watchdog
	MaxDumps int
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
	stalled       atomic.Bool
	// Stalls counts detected zero-delivery windows.
	Stalls int64
	// Suppressed counts zero-delivery windows explained away by Note.
	Suppressed int64
}

// Stalled reports whether the most recent completed window was an
// unexplained zero-delivery window. It is the /healthz liveness signal
// and is safe to read from a scraping goroutine while the simulation
// runs; it clears as soon as a window sees deliveries again.
//
//stashsim:phase parallel -- atomic load; the /healthz read side
func (w *Watchdog) Stalled() bool {
	if w == nil {
		return false
	}
	return w.stalled.Load()
}

// NextEventAt returns the next cycle >= from on which Observe does real
// work: the first call of a run (initialization) or a window boundary.
// Between boundaries Observe is a strict no-op, so an epoch-synchronized
// executor that runs its serial hooks exactly on the returned cycles
// reproduces the per-cycle watchdog behavior bit-for-bit.
//
//stashsim:phase serial -- reads the unsynchronized window bookkeeping
func (w *Watchdog) NextEventAt(from int64) int64 {
	if w == nil {
		return from + (1 << 62)
	}
	if !w.started {
		return from
	}
	if at := w.windowStart + w.Window; at > from {
		return at
	}
	return from
}

// Observe advances the watchdog to cycle now.
//
//stashsim:phase serial -- window bookkeeping is unsynchronized; runs from the PostCycle hook only
func (w *Watchdog) Observe(now int64) {
	if w == nil {
		return
	}
	if !w.started {
		w.started = true
		w.windowStart = now
		w.lastDelivered = w.Delivered()
		return
	}
	if now-w.windowStart < w.Window {
		return
	}
	d := w.Delivered()
	if d != w.lastDelivered || w.Pending == nil || !w.Pending() {
		w.stalled.Store(false)
	}
	if d == w.lastDelivered && w.Pending != nil && w.Pending() {
		if w.Note != nil {
			if note := w.Note(w.windowStart, now); note != "" {
				w.Suppressed++
				w.stalled.Store(false)
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
		w.stalled.Store(true)
		max := w.MaxDumps
		if max == 0 {
			max = 3
		}
		if w.Out != nil && w.Stalls <= int64(max) {
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
