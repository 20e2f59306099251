package metrics

import (
	"fmt"
	"io"

	"stashsim/internal/sim"
)

// FlightInterval is the flight recorder's row interval in cycles: one row
// per interval, so a ring of 4096 rows covers 262k cycles and recording
// costs one barrier round per 64 cycles, not one per cycle.
const FlightInterval = 64

// FlightField is one column of the flight recorder. Counter fields (Gauge
// false) are recorded as per-interval deltas of a monotone total; gauge
// fields are recorded as absolute values.
type FlightField struct {
	Name  string
	Gauge bool
}

// FlightRecorder retains the most recent per-interval aggregate readings
// in a preallocated ring, turning "the sim stalled" into "here are the
// last N intervals of deliveries, stash traffic, credit stalls and
// occupancy". It is a barrier observer (network.Observer) naming every
// multiple of FlightInterval; recording is allocation-free. Dump and
// Snapshot read the ring unsynchronized, so they too run only at a barrier:
// from the watchdog, a served dump request, or the telemetry snapshot. A
// nil *FlightRecorder is a no-op.
type FlightRecorder struct {
	fields []FlightField
	read   func(raw []int64)
	rows   int
	buf    []int64 // rows × (1 + len(fields)): cycle then one value per field
	prev   []int64 // previous raw reading per counter field
	n      int64   // total records ever written
}

// NewFlightRecorder returns a recorder retaining the last `rows` records
// of the given fields. read fills in the current raw reading of every
// field, in field order, in one pass over live simulation state. rows < 1
// is clamped to 1.
func NewFlightRecorder(rows int, read func(raw []int64), fields ...FlightField) *FlightRecorder {
	if rows < 1 {
		rows = 1
	}
	return &FlightRecorder{
		fields: fields,
		read:   read,
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
//stashsim:phase serial -- the reader walks live component state
func (f *FlightRecorder) AtBarrier(now int64) {
	if f == nil {
		return
	}
	stride := 1 + len(f.fields)
	row := f.buf[int(f.n%int64(f.rows))*stride:][:stride]
	row[0] = now
	f.read(row[1:])
	for i := range f.fields {
		if !f.fields[i].Gauge {
			row[1+i], f.prev[i] = row[1+i]-f.prev[i], row[1+i]
		}
	}
	f.n++
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
//
//stashsim:phase serial -- reads the ring AtBarrier writes
func (f *FlightRecorder) Snapshot(maxRows int) [][]int64 {
	if f == nil {
		return nil
	}
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
//
//stashsim:phase serial -- reads the ring AtBarrier writes
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
