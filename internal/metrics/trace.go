package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
)

// EventKind labels one packet-lifecycle event.
type EventKind uint8

const (
	// EvInject: the packet's head flit left its source endpoint.
	EvInject EventKind = iota
	// EvRoute: a switch made the routing decision for the packet's head.
	EvRoute
	// EvStashStore: the packet's head flit arrived in a stash pool.
	EvStashStore
	// EvStashRetrieve: a stashed packet started back onto the row bus.
	EvStashRetrieve
	// EvRetransmit: a retained stash copy was re-injected after a NACK.
	EvRetransmit
	// EvEject: the packet's tail flit arrived at its destination endpoint.
	EvEject
	// EvAck: the end-to-end ACK for the packet returned to its source.
	EvAck
	numEventKinds
)

var eventNames = [numEventKinds]string{
	"inject", "route", "stash-store", "stash-retrieve", "retransmit", "eject", "ack",
}

// String returns the event name used in the JSONL export.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one packet-lifecycle record. Node is the switch ID for switch
// events (route, stash-store, stash-retrieve, retransmit) and the endpoint
// ID for endpoint events (inject, eject, ack); Aux carries the event's
// port (route: chosen output; stash events: stash port), or -1.
type Event struct {
	Time     int64
	PktID    uint64
	Kind     EventKind
	Node     int32
	Aux      int32
	Src, Dst int32
}

// Tracer records packet-lifecycle events into a fixed-capacity ring,
// keeping the most recently recorded events and counting the overwritten
// ones. A nil *Tracer is a no-op, so tracing can stay wired in permanently.
// Record is mutex-protected: the tracer is the one observability sink
// shared across switch scopes, and must stay safe under the parallel
// executor.
//
// Record order is not simulated-time order: the executor steps one block
// of the network through a whole epoch before the next, and several
// workers record concurrently. The exports sort by Time; what the ring
// evicts when it overflows is the oldest *recorded*, which within an epoch
// may be later in simulated time than events it keeps.
//
//stashsim:phase parallel -- the ring is mutex-protected; this is the one sink deliberately shared across workers
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	head    int // index of the oldest event
	n       int
	dropped int64
}

// NewTracer returns a tracer retaining the last capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Record appends one event, evicting the oldest when the ring is full.
//
//stashsim:phase parallel -- mutex-serialized append, callable from any worker's Step
func (t *Tracer) Record(time int64, kind EventKind, pktID uint64, node, aux, src, dst int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev := Event{Time: time, PktID: pktID, Kind: kind, Node: node, Aux: aux, Src: src, Dst: dst}
	if t.n == len(t.buf) {
		t.buf[t.head] = ev
		t.head++
		if t.head == len(t.buf) {
			t.head = 0
		}
		t.dropped++
	} else {
		i := t.head + t.n
		if i >= len(t.buf) {
			i -= len(t.buf)
		}
		t.buf[i] = ev
		t.n++
	}
	t.mu.Unlock()
}

// Events returns the retained events in simulated-time order, oldest
// first; events of one cycle keep the order they were recorded in.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.buf[(t.head+i)%len(t.buf)]
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// Dropped returns how many events were evicted by ring wraparound: the
// ring keeps the last capacity events recorded.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// WriteJSONL writes the retained events as one JSON object per line. The
// fields are flat and schema-stable:
//
//	{"t":123,"ev":"inject","pkt":"2b00000001","node":4,"aux":-1,"src":43,"dst":7}
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, ev := range t.Events() {
		if _, err := fmt.Fprintf(bw, `{"t":%d,"ev":%q,"pkt":"%x","node":%d,"aux":%d,"src":%d,"dst":%d}`+"\n",
			ev.Time, ev.Kind.String(), ev.PktID, ev.Node, ev.Aux, ev.Src, ev.Dst); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteChromeTrace writes the retained events in Chrome trace_event JSON
// (loadable in chrome://tracing and Perfetto). Each packet becomes an
// async span opened at inject and closed at eject (id = packet ID), with
// the remaining lifecycle events as instant events on the thread of the
// switch/endpoint where they happened; one cycle maps to one microsecond
// of trace time. Switch events land on pid 1 ("switches"), endpoint
// events on pid 0 ("endpoints").
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	return t.WriteChromeTraceWith(w, nil)
}

// WriteChromeTraceWith is WriteChromeTrace with an extension point: when
// extra is non-nil it is invoked with the trace's emit function after the
// packet events, letting other subsystems (the executor profiler's
// worker/phase lanes on pid 2) append events to the same trace file with
// correct comma separation.
func (t *Tracer) WriteChromeTraceWith(w io.Writer, extra func(emit func(format string, args ...any) error) error) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, `{"displayTimeUnit":"ms","traceEvents":[`+"\n"); err != nil {
		return err
	}
	wrote := false
	emit := func(format string, args ...any) error {
		if wrote {
			if _, err := io.WriteString(bw, ",\n"); err != nil {
				return err
			}
		}
		wrote = true
		_, err := fmt.Fprintf(bw, format, args...)
		return err
	}
	if err := emit(`{"name":"process_name","ph":"M","pid":0,"args":{"name":"endpoints"}}`); err != nil {
		return err
	}
	if err := emit(`{"name":"process_name","ph":"M","pid":1,"args":{"name":"switches"}}`); err != nil {
		return err
	}
	for _, ev := range t.Events() {
		pid := 1
		switch ev.Kind {
		case EvInject, EvEject, EvAck:
			pid = 0
		}
		args := fmt.Sprintf(`{"pkt":"%x","src":%d,"dst":%d,"aux":%d}`, ev.PktID, ev.Src, ev.Dst, ev.Aux)
		switch ev.Kind {
		case EvInject:
			if err := emit(`{"name":"pkt","cat":"pkt","ph":"b","id":"%x","ts":%d,"pid":%d,"tid":%d,"args":%s}`,
				ev.PktID, ev.Time, pid, ev.Node, args); err != nil {
				return err
			}
		case EvEject:
			if err := emit(`{"name":"pkt","cat":"pkt","ph":"e","id":"%x","ts":%d,"pid":%d,"tid":%d,"args":%s}`,
				ev.PktID, ev.Time, pid, ev.Node, args); err != nil {
				return err
			}
		}
		if err := emit(`{"name":%q,"cat":"lifecycle","ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":%s}`,
			ev.Kind.String(), ev.Time, pid, ev.Node, args); err != nil {
			return err
		}
	}
	if extra != nil {
		if err := extra(emit); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(bw, "\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
