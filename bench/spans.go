package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer. Parent is the
// index of the span that was open when this one started, -1 for a root;
// every span of one run carries that run's id.
type span struct {
	Name   string  `json:"name"`
	Run    string  `json:"run"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"` // seconds since the tracer was made
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // filled by finish
}

// tracer times calls into the simulator's layers. A nil tracer times
// them just the same and records nothing, so every reported duration
// comes from the same clock reads whether or not tracing is on. Spans
// stay in memory until write.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

// span runs fn and returns how long it took, recording a span when
// tracing is on.
func (t *tracer) span(name string, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	idx := len(t.spans)
	start := time.Now()
	t.spans = append(t.spans, span{Name: name, Run: t.run, Parent: parent, Start: start.Sub(t.t0).Seconds()})
	t.open = append(t.open, idx)
	// Close the span even when fn panics, so a failed run still writes
	// a well-formed trace.
	defer func() {
		t.spans[idx].End = time.Since(t.t0).Seconds()
		t.open = t.open[:len(t.open)-1]
	}()
	fn()
	return time.Since(start)
}

// finish fills every span's self time: its duration minus the part of
// it that its direct children cover. Children never overlap each other
// (the benchmark is single-threaded around its spans).
func finish(spans []span) {
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start
	}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			spans[p].Self -= spans[i].End - spans[i].Start
		}
	}
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+t.run+".json"), data, 0o644)
}
