package metrics

import (
	"fmt"
	"io"
	"sync"

	"stashsim/internal/sim"
)

// FlightInterval is the flight recorder's row interval in cycles: one row
// per interval, so a ring of 4096 rows covers 262k cycles and recording
// costs one barrier round per 64 cycles, not one per cycle.
const FlightInterval = 64

// FlightField is one column of the flight recorder: a named reader over
// live simulation state. Counter fields (Gauge false) are recorded as
// per-interval deltas of a monotone total; gauge fields are recorded as
// absolute values.
type FlightField struct {
	Name  string
	Gauge bool
	Read  func() int64
}

// FlightRecorder retains the most recent per-interval aggregate readings
// in a preallocated ring, turning "the sim stalled" into "here are the
// last N intervals of deliveries, stash traffic, credit stalls and
// occupancy". It is a barrier observer (network.Observer) naming every
// multiple of FlightInterval; recording is allocation-free, and
// Dump/Snapshot may be called from the watchdog, a SIGQUIT handler, or the
// telemetry snapshot path. A nil *FlightRecorder is a no-op.
type FlightRecorder struct {
	mu     sync.Mutex
	fields []FlightField
	rows   int
	buf    []int64 // rows × (1 + len(fields)): cycle then one value per field
	prev   []int64 // previous raw reading per counter field
	n      int64   // total records ever written
}

// NewFlightRecorder returns a recorder retaining the last `rows` records
// of the given fields. rows < 1 is clamped to 1.
func NewFlightRecorder(rows int, fields ...FlightField) *FlightRecorder {
	if rows < 1 {
		rows = 1
	}
	return &FlightRecorder{
		fields: fields,
		rows:   rows,
		buf:    make([]int64, rows*(1+len(fields))),
		prev:   make([]int64, len(fields)),
	}
}

// NextEventAt names the row cycles: the multiples of FlightInterval.
//
//stashsim:phase serial
func (f *FlightRecorder) NextEventAt(from int64) int64 {
	if f == nil {
		return sim.Never
	}
	return sim.NextMultiple(from, FlightInterval)
}

// AtBarrier captures one row after cycle now: deltas since the previous
// row for counter fields, absolutes for gauges. It never allocates.
//
//stashsim:phase serial -- field readers walk live component state
func (f *FlightRecorder) AtBarrier(now int64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	stride := 1 + len(f.fields)
	row := f.buf[int(f.n%int64(f.rows))*stride:]
	row[0] = now
	for i := range f.fields {
		v := f.fields[i].Read()
		if f.fields[i].Gauge {
			row[1+i] = v
		} else {
			row[1+i] = v - f.prev[i]
			f.prev[i] = v
		}
	}
	f.n++
	f.mu.Unlock()
}

// FieldNames returns the column names after the leading "cycle" column.
func (f *FlightRecorder) FieldNames() []string {
	if f == nil {
		return nil
	}
	names := make([]string, len(f.fields))
	for i := range f.fields {
		names[i] = f.fields[i].Name
	}
	return names
}

// Snapshot copies up to maxRows of the most recent records, oldest first,
// each row as [cycle, field0, field1, ...]. maxRows <= 0 means all.
func (f *FlightRecorder) Snapshot(maxRows int) [][]int64 {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	avail := int(f.n)
	if avail > f.rows {
		avail = f.rows
	}
	if maxRows > 0 && avail > maxRows {
		avail = maxRows
	}
	stride := 1 + len(f.fields)
	out := make([][]int64, 0, avail)
	for i := avail; i > 0; i-- {
		idx := int((f.n - int64(i)) % int64(f.rows))
		row := make([]int64, stride)
		copy(row, f.buf[idx*stride:(idx+1)*stride])
		out = append(out, row)
	}
	return out
}

// Dump writes up to maxRows of the most recent records as an aligned
// table (oldest first), for watchdog stall dumps and SIGQUIT post-mortems.
// maxRows <= 0 means all retained rows.
func (f *FlightRecorder) Dump(w io.Writer, maxRows int) {
	if f == nil {
		return
	}
	rows := f.Snapshot(maxRows)
	if len(rows) == 0 {
		fmt.Fprintln(w, "flight recorder: empty")
		return
	}
	fmt.Fprintf(w, "flight recorder: last %d intervals of %d cycles (counters are per-interval deltas)\n", len(rows), FlightInterval)
	fmt.Fprintf(w, "%12s", "cycle")
	for _, fieldName := range f.FieldNames() {
		fmt.Fprintf(w, " %14s", fieldName)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%12d", row[0])
		for _, v := range row[1:] {
			fmt.Fprintf(w, " %14d", v)
		}
		fmt.Fprintln(w)
	}
}
