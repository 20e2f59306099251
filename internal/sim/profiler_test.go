package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestPhaseHistRecording(t *testing.T) {
	var h PhaseHist
	for _, d := range []int64{100, 200, 300, 400, 1 << 20} {
		h.rec(d)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d, want 5", h.Count())
	}
	if want := int64(100 + 200 + 300 + 400 + 1<<20); h.SumNS() != want {
		t.Fatalf("sum %d, want %d", h.SumNS(), want)
	}
	if h.MaxNS() != 1<<20 {
		t.Fatalf("max %d, want %d", h.MaxNS(), 1<<20)
	}
	if p99 := h.P99NS(); p99 < 1<<20 {
		t.Fatalf("p99 %d should cover the max observation's bucket", p99)
	}
	h.rec(-5) // negative clamps, must not corrupt sums
	if h.SumNS() < 0 || h.Count() != 6 {
		t.Fatalf("negative duration mishandled: sum=%d count=%d", h.SumNS(), h.Count())
	}
}

func TestPhaseHistP99Empty(t *testing.T) {
	var h PhaseHist
	if h.P99NS() != 0 {
		t.Fatalf("empty hist p99 = %d, want 0", h.P99NS())
	}
}

func TestExecProfilerSerial(t *testing.T) {
	const comps, cycles = 6, 50
	var steppers []Stepper
	for i := 0; i < comps; i++ {
		steppers = append(steppers, &countStepper{})
	}
	e := NewPartitionedExecutor([][]Stepper{steppers}, []int{2}, 1, 1<<40, nil)
	e.BeforeEpoch = everyCycle
	p := NewExecProfiler(1, 16)
	p.SetPhaseLabels("endpoints", "switches")
	e.Profiler = p
	e.Run(0, cycles)
	r := p.Report()
	if r.Cycles != cycles {
		t.Fatalf("cycles %d, want %d", r.Cycles, cycles)
	}
	if r.WallNS <= 0 {
		t.Fatal("wall time not recorded")
	}
	if got := p.Hist(0, PhaseWorkA).Count(); got != cycles {
		t.Fatalf("work-a count %d, want %d", got, cycles)
	}
	if got := p.Hist(1, PhasePreHook).Count(); got != cycles {
		t.Fatalf("pre-hook count %d, want %d", got, cycles)
	}
	if r.Attribution.AttributedPct < 95 {
		t.Fatalf("serial attribution %.1f%%, want >= 95%%", r.Attribution.AttributedPct)
	}
	txt := r.Text()
	for _, want := range []string{"endpoints", "switches", "pre-hook", "post-hook", "lane coord"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("text report missing %q:\n%s", want, txt)
		}
	}
	var decoded ExecReport
	if err := json.Unmarshal(r.JSON(), &decoded); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
}

func TestExecProfilerParallel(t *testing.T) {
	const comps, cycles, workers = 8, 40, 4
	var steppers []Stepper
	for i := 0; i < comps; i++ {
		steppers = append(steppers, &countStepper{})
	}
	parts, _ := roundRobin(steppers, workers)
	e := NewPartitionedExecutor(parts, []int{1, 1, 1, 0}, len(parts), 7, nil)
	e.BeforeEpoch = everyCycle
	p := NewExecProfiler(workers, 8)
	e.Profiler = p
	e.Run(0, cycles)
	e.Close()
	r := p.Report()
	if r.Cycles != cycles || r.Workers != workers {
		t.Fatalf("report cycles=%d workers=%d", r.Cycles, r.Workers)
	}
	for w := 0; w < workers; w++ {
		for _, ph := range []Phase{PhaseWorkA, PhaseWorkB, PhaseBarrierRelease, PhaseBarrierPublish} {
			if got := p.Hist(w, ph).Count(); got != cycles {
				t.Fatalf("worker %d phase %v count %d, want %d", w, ph, got, cycles)
			}
		}
	}
	// Partitions 0-2 lead with one phase-A component, partition 3 with
	// none — observational only, but the report must attribute nearly all
	// wall time.
	if a := r.Attribution; a.AttributedPct < 90 || a.AttributedPct > 120 {
		t.Fatalf("parallel attribution %.1f%% outside sanity band", a.AttributedPct)
	}
	recs := p.Recent()
	if len(recs) == 0 {
		t.Fatal("ring retained no records")
	}
	for i := 1; i < len(recs); i++ {
		a, b := recs[i-1], recs[i]
		if b.Cycle < a.Cycle || (b.Cycle == a.Cycle && b.Lane <= a.Lane) {
			t.Fatalf("ring records not sorted: %+v then %+v", a, b)
		}
	}
}

// TestExecProfilerMismatchedWorkersPanics is the regression test for the
// silent-drop bug: a profiler sized for the wrong worker count used to be
// quietly ignored on the parallel path, yielding an unprofiled run with
// no diagnostic. The mismatch must now fail loudly before any cycle runs.
func TestExecProfilerMismatchedWorkersPanics(t *testing.T) {
	var steppers []Stepper
	for i := 0; i < 6; i++ {
		steppers = append(steppers, &countStepper{})
	}
	parts, aCounts := roundRobin(steppers, 3)
	e := NewPartitionedExecutor(parts, aCounts, len(parts), 7, nil)
	defer e.Close()
	e.Profiler = NewExecProfiler(2, 0) // wrong worker count
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched profiler was accepted silently")
		}
	}()
	e.Run(0, 10)
}

func TestExecProfilerChromeEvents(t *testing.T) {
	var steppers []Stepper
	for i := 0; i < 4; i++ {
		steppers = append(steppers, &countStepper{})
	}
	parts, _ := roundRobin(steppers, 2)
	e := NewPartitionedExecutor(parts, []int{1, 1}, len(parts), 7, nil)
	p := NewExecProfiler(2, 4)
	p.SetPhaseLabels("endpoints", "switches")
	e.Profiler = p
	e.Run(0, 20) // lookahead 7: epochs [0,7) [7,14) [14,20)
	e.Close()
	var buf bytes.Buffer
	err := p.ChromeEvents(func(format string, args ...any) error {
		fmt.Fprintf(&buf, format, args...)
		buf.WriteByte('\n')
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"name":"executor"`, `"name":"coord"`, `"pid":2`, `"cat":"executor"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome events missing %s in:\n%s", want, out)
		}
	}
	// One simulated cycle is 1 µs of trace time, so an epoch's lanes must
	// cover the cycles the epoch ran: the coordinator lane ends exactly at
	// cycle+len, the partition lanes inside it (a partition's release wait
	// starts when it published the previous epoch, a moment before the
	// coordinator's post-hook ends that epoch — hence the half cycle).
	ends := map[int64]int64{0: 7, 7: 14, 14: 20}
	coordEnd := map[int64]float64{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var ev struct {
			Ph      string
			Ts, Dur float64
			Tid     int
			Args    struct{ Cycle int64 }
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("invalid JSON event: %s: %v", line, err)
		}
		if ev.Ph != "X" {
			continue
		}
		end, ok := ends[ev.Args.Cycle]
		if !ok {
			t.Fatalf("event for an epoch that never started: %s", line)
		}
		if ev.Ts < float64(ev.Args.Cycle)-0.5 || ev.Ts+ev.Dur > float64(end)+1e-3 {
			t.Errorf("event outside its epoch's cycles [%d,%d): %s", ev.Args.Cycle, end, line)
		}
		if ev.Tid == p.Workers() {
			coordEnd[ev.Args.Cycle] = max(coordEnd[ev.Args.Cycle], ev.Ts+ev.Dur)
		}
	}
	for cycle, end := range ends {
		if got := coordEnd[cycle]; math.Abs(got-float64(end)) > 1e-3 {
			t.Errorf("epoch at cycle %d: coordinator lane ends at %.4f µs, want %d (cycle+len)", cycle, got, end)
		}
	}
}

func TestExecProfilerNilSafe(t *testing.T) {
	var p *ExecProfiler
	p.SetPhaseLabels("a", "b")
	if p.Workers() != 0 || p.Report() != nil || p.Recent() != nil {
		t.Fatal("nil profiler accessors must be inert")
	}
	if err := p.ChromeEvents(nil); err != nil {
		t.Fatal("nil profiler ChromeEvents must be a no-op")
	}
	var r *ExecReport
	if r.Text() != "" || r.JSON() != nil {
		t.Fatal("nil report renderers must be inert")
	}
}
