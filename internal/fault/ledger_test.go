package fault

import (
	"bytes"
	"math/rand"
	"testing"

	"stashsim/internal/sim"
	"stashsim/internal/snapshot"
)

// testRec is a ledger record with one field of its owner's.
type testRec struct {
	Timer
	v uint32
}

type testLedger = Ledger[testRec, *testRec]

// ledgerModel is the plain reference driveLedger holds a Ledger to: the
// live records in a map, and every arming ever made in one append-ordered
// slice, never compacted, that each scan walks in full. An arming is done
// once a scan fires it or finds it stale.
type ledgerModel struct {
	base   int64
	budget int
	every  int64
	live   map[uint64]*modelRec
	timers []modelTimer
}

type modelRec struct {
	v        uint32
	deadline int64
	retries  int
}

type modelTimer struct {
	deadline int64
	id       uint64
	done     bool
}

func (m *ledgerModel) arm(now int64, id uint64) {
	r := m.live[id]
	r.deadline = now + m.base<<min(r.retries, 20)
	m.timers = append(m.timers, modelTimer{deadline: r.deadline, id: id})
}

func (m *ledgerModel) retry(now int64, id uint64) bool {
	r := m.live[id]
	if r.retries >= m.budget {
		return false
	}
	r.retries++
	m.arm(now, id)
	return true
}

// scan fires the armings made before it that are due and not stale, in
// arming order, if now is a scan cycle.
func (m *ledgerModel) scan(now int64, fire func(id uint64)) {
	if m.every > 1 && now%m.every != 0 {
		return
	}
	n := len(m.timers)
	for i := 0; i < n; i++ {
		t := &m.timers[i]
		if t.done {
			continue
		}
		if r := m.live[t.id]; r == nil || r.deadline != t.deadline {
			t.done = true
			continue
		}
		if t.deadline <= now {
			t.done = true
			fire(t.id)
		}
	}
}

// pending is the number of armings no scan has found done: the length of
// the ledger's timer list.
func (m *ledgerModel) pending() int {
	n := 0
	for _, t := range m.timers {
		if !t.done {
			n++
		}
	}
	return n
}

// fired is one firing as both sides report it.
type fired struct {
	now, deadline int64
	id            uint64
	retries       int
	v             uint32
}

// ledgerIDs is the number of packet IDs driveLedger draws from, few enough
// that records are dropped and re-added under the same ID.
const ledgerIDs = 8

// driveLedger replays one op stream against a Ledger and a ledgerModel and
// requires the same answers of both: the records fired, in order, with
// their deadlines, retries and owner field; the retry verdicts; Len, Armed
// and NextScan after every op; Get for every ID. The first byte picks the
// base timeout (1..4), the retry budget (0..3) and the scan interval
// (1..4, 0 and 1 scanning every cycle).
//
// Each later op byte is a kind (top three bits) and an argument (low
// five): an ID (its low three bits) and a parameter x (its top two). The
// kinds: add a record for the ID; arm it; charge it a retry; drop it; run
// 3x+1 cycles, scanning each, where a firing retries, drops or leaves its
// record as the ID, the cycle and the argument pick; round-trip the ledger
// through its state walk, which must write the bytes it read, and go on
// with the decoded one; add and arm a record for the ID; run one cycle
// whose firings all retry (x=0), all drop (x=1), all leave their records
// (x=2) or mix (x=3). An op on a record that is not there, or an add of
// one that is, does nothing.
func driveLedger(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) == 0 {
		return
	}
	base, budget, every := int64(ops[0]&3)+1, int(ops[0]>>2&3), int64(ops[0]>>4&3)+1
	if ops[0]>>4&3 == 0 {
		every = 0
	}
	l := NewLedger[testRec](base, budget, every)
	m := &ledgerModel{base: base, budget: budget, every: every, live: map[uint64]*modelRec{}}
	var now int64
	for step, op := range ops[1:] {
		kind, arg := op>>5, op&31
		id, x := uint64(arg&7), int(arg>>3)
		r, mr := l.Get(id), m.live[id]
		switch kind {
		case 0, 6:
			if mr != nil {
				break
			}
			r = l.Add(id)
			if r.v != 0 || r.retries != 0 || r.deadline != 0 {
				t.Fatalf("op %d: Add(%d) returned a used record %+v", step, id, *r)
			}
			r.v = uint32(step + 1)
			m.live[id] = &modelRec{v: uint32(step + 1)}
			if kind == 6 {
				l.Arm(now, id, r)
				m.arm(now, id)
			}
		case 1:
			if mr != nil {
				l.Arm(now, id, r)
				m.arm(now, id)
			}
		case 2:
			if mr != nil {
				if got, want := l.Retry(now, id, r), m.retry(now, id); got != want {
					t.Fatalf("op %d: Retry(%d) = %v, the model says %v", step, id, got, want)
				}
			}
		case 3:
			if mr != nil {
				l.Drop(id, r)
				delete(m.live, id)
			}
		case 4, 7:
			cycles := 3*x + 1
			if kind == 7 {
				cycles = 1
			}
			for c := 0; c < cycles; c++ {
				now++
				act := func(fid uint64, k int) int {
					if kind == 7 && x < 3 {
						return x
					}
					return int((fid + uint64(now) + uint64(arg) + uint64(k)) % 3)
				}
				var got, want []fired
				l.Scan(now, func(at int64, fid uint64, r *testRec) {
					if at != now {
						t.Fatalf("op %d: Scan(%d) fired at cycle %d", step, now, at)
					}
					got = append(got, fired{now, r.deadline, fid, int(r.retries), r.v})
					switch act(fid, len(got)) {
					case 0:
						l.Retry(now, fid, r)
					case 1:
						l.Drop(fid, r)
					}
				})
				m.scan(now, func(fid uint64) {
					r := m.live[fid]
					want = append(want, fired{now, r.deadline, fid, r.retries, r.v})
					switch act(fid, len(want)) {
					case 0:
						m.retry(now, fid)
					case 1:
						delete(m.live, fid)
					}
				})
				if !equalFired(got, want) {
					t.Fatalf("op %d, cycle %d: the ledger fired %+v, the model %+v", step, now, got, want)
				}
			}
		case 5:
			l = roundTrip(t, &l, base, budget, every)
		}
		checkLedger(t, step, now, &l, m)
	}
}

func equalFired(a, b []fired) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkLedger compares what l answers with the model's.
func checkLedger(t *testing.T, step int, now int64, l *testLedger, m *ledgerModel) {
	t.Helper()
	if l.Len() != len(m.live) {
		t.Fatalf("op %d: Len = %d, the model holds %d", step, l.Len(), len(m.live))
	}
	if l.Armed() != m.pending() {
		t.Fatalf("op %d: Armed = %d, the model has %d armings pending", step, l.Armed(), m.pending())
	}
	want := sim.Never
	if m.pending() > 0 {
		want = now + 1
		if m.every > 1 {
			want = (now/m.every + 1) * m.every
		}
	}
	if got := l.NextScan(now); got != want {
		t.Fatalf("op %d: NextScan(%d) = %d, want %d", step, now, got, want)
	}
	for id := uint64(0); id < ledgerIDs; id++ {
		r, mr := l.Get(id), m.live[id]
		switch {
		case (r == nil) != (mr == nil):
			t.Fatalf("op %d: Get(%d) = %v, the model holds %v", step, id, r, mr)
		case r != nil && (r.v != mr.v || r.deadline != mr.deadline || int(r.retries) != mr.retries):
			t.Fatalf("op %d: record %d is %+v, the model's %+v", step, id, *r, *mr)
		}
	}
}

// roundTrip walks l into a snapshot, decodes it into a fresh ledger of the
// same parameters, and requires the decoded ledger to write the same bytes.
func roundTrip(t *testing.T, l *testLedger, base int64, budget int, every int64) testLedger {
	t.Helper()
	walk := func(l *testLedger) func(*snapshot.Codec) {
		return func(c *snapshot.Codec) {
			l.State(c, 1+2, func(r *testRec) {
				c.U32(&r.v)
				r.Timer.State(c)
			})
		}
	}
	data := snapshot.Encode(walk(l))
	out := NewLedger[testRec](base, budget, every)
	c, err := snapshot.NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	if walk(&out)(c); c.Close() != nil {
		t.Fatalf("decoding the ledger's walk: %v", c.Close())
	}
	if again := snapshot.Encode(walk(&out)); !bytes.Equal(again, data) {
		t.Fatalf("the decoded ledger writes %d bytes, not the %d it read", len(again), len(data))
	}
	return out
}

// TestLedgerModel replays seeded op streams: uniform ones, and ones that
// arm and retry often before a scan, so that stale timers pile up and
// firings re-arm during the scan that fires them.
func TestLedgerModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		ops := make([]byte, 1+rng.Intn(300))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
			if round%2 == 1 && i > 0 {
				kind := []byte{6, 1, 2, 7, 4, 1, 5}[rng.Intn(7)]
				ops[i] = kind<<5 | ops[i]&31
			}
		}
		driveLedger(t, ops)
	}
}

func FuzzLedger(f *testing.F) {
	f.Add([]byte{0x0C, 0xC0, 0xC1, 0x20, 0x81, 0xE0, 0xE0, 0xE0, 0xA0, 0xE0}) // two armed, one re-armed before its scan, retries fired and re-armed
	f.Add([]byte{0x2D, 0xC0, 0xC1, 0xC2, 0x40, 0x99, 0xE8, 0x60, 0xC0, 0x98}) // scans every 3rd cycle, a drop, a re-add under a dropped ID
	f.Add([]byte{0x0F, 0xC0, 0xC1, 0xE0, 0xE0, 0xA0, 0xE0, 0xF8, 0xE8, 0xF0}) // budget 3: retries during scans, a round trip between them
	f.Fuzz(driveLedger)
}
