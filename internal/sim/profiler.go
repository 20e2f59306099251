package sim

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// The executor stall profiler answers "why doesn't parallel scale?": it
// attributes every nanosecond of a Run's wall time to phase work (stepping
// components), barrier waits (release wait — the shadow of the serial
// hooks — and publish wait — straggler skew), or the serial BeforeEpoch /
// AfterEpoch hooks themselves. Recording is zero-allocation (fixed-size
// log2 histograms and a preallocated ring, all atomics), so a profiled
// run differs from an unprofiled one only by clock reads, and the
// profiler may be read concurrently with the run (the telemetry snapshot
// path does exactly that from the AfterEpoch hook while workers record
// their publish waits).
//
// Wall-clock time is inherently nondeterministic; it never feeds the
// simulation, only the report, which is why the determinism analyzer
// suppressions below are sound.

// profEpoch anchors the monotonic clock used for all profile timestamps.
//
//lint:allow determinism -- profiler-only wall clock; never feeds simulation state
var profEpoch = time.Now()

// nowNS returns monotonic nanoseconds since process start (profiling only).
//
//stashsim:phase parallel
//stashsim:noalloc
func nowNS() int64 {
	//lint:allow allocfree -- time.Since is an allocation-free clock read
	return int64(time.Since(profEpoch)) //lint:allow determinism -- profiler-only wall clock; never feeds simulation state
}

// Phase indexes one timed region of the executor cycle.
type Phase uint8

const (
	// PhaseWorkA is time spent stepping components below the executor's
	// phase split (the network maps these to endpoints).
	PhaseWorkA Phase = iota
	// PhaseWorkB is time spent stepping components at or above the phase
	// split (the network maps these to switches).
	PhaseWorkB
	// PhaseBarrierRelease is a worker's wait at the epoch-entry barrier:
	// the shadow of the coordinator's serial hooks plus scheduling delay.
	PhaseBarrierRelease
	// PhaseBarrierPublish is a worker's wait at the epoch-exit barrier
	// after finishing its own blocks: pure straggler skew.
	PhaseBarrierPublish
	// PhasePreHook is the coordinator's serial BeforeEpoch hook (the
	// network's due actions and the epoch cut).
	PhasePreHook
	// PhasePostHook is the coordinator's serial AfterEpoch hook (progress
	// and the network's due observers).
	PhasePostHook
	// PhaseCycleSpan is the coordinator's span between releasing the
	// workers and the last one finishing: the stepping section of the
	// epoch as the coordinator sees it.
	PhaseCycleSpan
	// PhaseEpochDrain is a worker's time delivering cross-worker
	// link slabs at an epoch boundary.
	PhaseEpochDrain
	// NumPhases is the number of timed phases.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"work-a", "work-b", "barrier-release", "barrier-publish",
	"pre-hook", "post-hook", "cycle-span", "epoch-drain",
}

// String returns the phase name used in reports and trace lanes.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// phaseBuckets is the histogram resolution: bucket i counts durations
// whose bit length is i, i.e. [2^(i-1), 2^i) ns; 40 buckets cover ~9 min.
const phaseBuckets = 40

// PhaseHist is a fixed-size log2 histogram of phase durations. All fields
// are atomics so workers can record while the coordinator (or the
// telemetry snapshot path) reads; recording never allocates.
type PhaseHist struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [phaseBuckets]atomic.Int64
}

// rec records one duration (negative clamps to zero).
//
//stashsim:phase parallel
//stashsim:noalloc
func (h *PhaseHist) rec(d int64) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(d)
	for {
		m := h.max.Load()
		if d <= m || h.max.CompareAndSwap(m, d) {
			break
		}
	}
	b := bits.Len64(uint64(d))
	if b >= phaseBuckets {
		b = phaseBuckets - 1
	}
	h.buckets[b].Add(1)
}

// Count returns the number of recorded durations.
func (h *PhaseHist) Count() int64 { return h.count.Load() }

// SumNS returns the total recorded nanoseconds.
func (h *PhaseHist) SumNS() int64 { return h.sum.Load() }

// MaxNS returns the largest recorded duration.
func (h *PhaseHist) MaxNS() int64 { return h.max.Load() }

// P99NS returns an upper bound (the containing power-of-two bucket edge)
// on the 99th-percentile duration.
func (h *PhaseHist) P99NS() int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	// Rank of the p99 observation, 1-based.
	rank := (n*99 + 99) / 100
	var cum int64
	for b := 0; b < phaseBuckets; b++ {
		cum += h.buckets[b].Load()
		if cum >= rank {
			if b == 0 {
				return 0
			}
			return int64(1) << uint(b)
		}
	}
	return h.max.Load()
}

// ringLaneWords is the per-(epoch, lane) ring record: first cycle, start
// timestamp, and one duration per recorded sub-phase (worker lanes use
// release/work-a/work-b/publish; the coordinator lane uses
// pre/span/post and carries the epoch's cycle count in the fourth).
const ringLaneWords = 6

// profRing retains the most recent cycles' per-lane timings for the
// Chrome trace lane export and post-mortem dumps. Slots are atomics:
// each (cycle, lane) slot has exactly one writer, but readers (telemetry
// snapshots) run concurrently.
type profRing struct {
	cycles int
	lanes  int
	slots  []atomic.Int64 // cycles × lanes × ringLaneWords
}

//stashsim:phase parallel
//stashsim:noalloc
func (r *profRing) put(cycle int64, lane int, start, d0, d1, d2, d3 int64) {
	if r == nil {
		return
	}
	base := ((int(cycle%int64(r.cycles)))*r.lanes + lane) * ringLaneWords
	s := r.slots[base : base+ringLaneWords]
	s[0].Store(cycle)
	s[1].Store(start)
	s[2].Store(d0)
	s[3].Store(d1)
	s[4].Store(d2)
	s[5].Store(d3)
}

// RingRec is one retained (cycle, lane) timing record.
type RingRec struct {
	Cycle int64
	Lane  int // 0..workers-1, or workers for the coordinator
	Start int64
	Durs  [4]int64
}

// ExecProfiler collects per-worker, per-phase executor timings. Lanes
// 0..workers-1 belong to the workers, each summing over the blocks it
// steps (one lane when the executor runs inline); lane `workers` is the coordinator. Construct with
// NewExecProfiler and attach to Executor.Profiler before the first Run.
// One profiler may be shared by several executors (the figures harness
// attaches one to every sweep network): all recording is atomic, so the
// totals aggregate across them.
type ExecProfiler struct {
	workers int
	lanes   [][NumPhases]PhaseHist
	// steps[lane] counts component-cycles: a (stepped, asleep) pair per
	// work phase.
	steps  [][4]atomic.Int64
	wallNS atomic.Int64
	cycles atomic.Int64
	epochs atomic.Int64 // synchronizations; == cycles when every cycle is an epoch
	ring   *profRing

	labelA, labelB string
}

// NewExecProfiler returns a profiler for an executor with the given
// worker count (values below one mean one).
// ringCycles > 0 retains the most recent ringCycles cycles of raw lane
// timings for the Chrome trace export; 0 disables the ring.
func NewExecProfiler(workers, ringCycles int) *ExecProfiler {
	if workers < 1 {
		workers = 1
	}
	p := &ExecProfiler{
		workers: workers,
		lanes:   make([][NumPhases]PhaseHist, workers+1),
		steps:   make([][4]atomic.Int64, workers),
		labelA:  "work-a",
		labelB:  "work-b",
	}
	if ringCycles > 0 {
		p.ring = &profRing{
			cycles: ringCycles,
			lanes:  workers + 1,
			slots:  make([]atomic.Int64, ringCycles*(workers+1)*ringLaneWords),
		}
	}
	return p
}

// SetPhaseLabels names the two work sub-phases in reports and trace
// lanes (the network calls this with "endpoints", "switches").
func (p *ExecProfiler) SetPhaseLabels(a, b string) {
	if p == nil {
		return
	}
	p.labelA, p.labelB = a, b
}

// Workers returns the number of worker lanes.
func (p *ExecProfiler) Workers() int {
	if p == nil {
		return 0
	}
	return p.workers
}

// Hist returns the histogram for one lane and phase (lane p.Workers() is
// the coordinator). It panics on out-of-range lanes, like a slice index.
func (p *ExecProfiler) Hist(lane int, ph Phase) *PhaseHist {
	return &p.lanes[lane][ph]
}

// clock reads the profiling clock, or returns 0 with no profiler attached
// — the executor's one loop takes its timestamps through it, so an
// unprofiled run pays a nil check instead of a clock read.
//
//stashsim:phase parallel
//stashsim:noalloc
func (p *ExecProfiler) clock() int64 {
	if p == nil {
		return 0
	}
	return nowNS()
}

// recWorkerEpoch records one worker's epoch: entry-barrier wait, the
// epoch drain, the accumulated work of the epoch's cycles, and the
// exit-barrier wait (both waits are zero for a worker run inline). The
// ring entry folds the drain into the release slot to keep the record four
// durations wide.
//
//stashsim:phase parallel
//stashsim:noalloc
func (p *ExecProfiler) recWorkerEpoch(cycle int64, lane int, start, dRel, dDrain, dA, dB, dPub int64) {
	if p == nil {
		return
	}
	l := &p.lanes[lane]
	l[PhaseBarrierRelease].rec(dRel)
	l[PhaseEpochDrain].rec(dDrain)
	l[PhaseWorkA].rec(dA)
	l[PhaseWorkB].rec(dB)
	l[PhaseBarrierPublish].rec(dPub)
	p.ring.put(cycle, lane, start, dRel+dDrain, dA, dB, dPub)
}

// recSteps adds one worker epoch's component-cycle counts for a work
// phase: how many components were stepped and how many slept.
//
//stashsim:phase parallel
//stashsim:noalloc
func (p *ExecProfiler) recSteps(lane int, ph Phase, stepped, skipped int64) {
	if p != nil {
		p.steps[lane][2*ph].Add(stepped)
		p.steps[lane][2*ph+1].Add(skipped)
	}
}

// recCoordEpoch records one coordinator epoch spanning `cycles` simulated
// cycles with a single synchronization: hooks, parallel span, wall.
//
//stashsim:phase serial
func (p *ExecProfiler) recCoordEpoch(cycle int64, start, dPre, dSpan, dPost, cycles int64) {
	if p == nil {
		return
	}
	l := &p.lanes[p.workers]
	l[PhasePreHook].rec(dPre)
	l[PhaseCycleSpan].rec(dSpan)
	l[PhasePostHook].rec(dPost)
	p.wallNS.Add(dPre + dSpan + dPost)
	p.cycles.Add(cycles)
	p.epochs.Add(1)
	p.ring.put(cycle, p.workers, start, dPre, dSpan, dPost, cycles)
}

// Recent returns the retained ring records, oldest cycle first, skipping
// unwritten slots. It allocates and is meant for end-of-run export or
// snapshot paths, not the per-cycle path.
func (p *ExecProfiler) Recent() []RingRec {
	if p == nil || p.ring == nil {
		return nil
	}
	r := p.ring
	out := make([]RingRec, 0, r.cycles*r.lanes)
	for c := 0; c < r.cycles; c++ {
		for l := 0; l < r.lanes; l++ {
			base := (c*r.lanes + l) * ringLaneWords
			s := r.slots[base : base+ringLaneWords]
			start := s[1].Load()
			if start == 0 {
				continue // never written
			}
			rec := RingRec{Cycle: s[0].Load(), Lane: l, Start: start}
			rec.Durs = [4]int64{s[2].Load(), s[3].Load(), s[4].Load(), s[5].Load()}
			out = append(out, rec)
		}
	}
	slices.SortFunc(out, func(a, b RingRec) int {
		return cmp.Or(cmp.Compare(a.Cycle, b.Cycle), cmp.Compare(a.Lane, b.Lane))
	})
	return out
}

// PhaseReport summarizes one lane's phase in the exported report.
type PhaseReport struct {
	Phase   string  `json:"phase"`
	Count   int64   `json:"count"`
	TotalNS int64   `json:"total_ns"`
	MeanNS  float64 `json:"mean_ns"`
	P99NS   int64   `json:"p99_ns"`
	MaxNS   int64   `json:"max_ns"`
	Stepped int64   `json:"stepped"` // work phases: component-cycles stepped
	Skipped int64   `json:"skipped"` // and slept through
}

// LaneReport is one lane (worker or coordinator) of the report.
type LaneReport struct {
	Lane   string        `json:"lane"`
	WorkNS int64         `json:"work_ns"`
	Phases []PhaseReport `json:"phases"`
}

// Attribution decomposes executor wall time. The worker-side percentages
// are normalized to workers × wall (total worker-lane capacity), so
// work + release-wait + publish-wait ≈ 100 for a parallel run; the hook
// percentages are fractions of coordinator wall and explain the
// release-wait share. Imbalance is (max-mean)/mean of per-worker work.
type Attribution struct {
	WallNS int64 `json:"wall_ns"`
	Cycles int64 `json:"cycles"`
	// Epochs counts barrier synchronizations; CyclesPerSync = Cycles /
	// Epochs is the epoch scheduler's headline number (1.0 means a global
	// barrier every cycle; the lookahead target is >= 50 at paper scale).
	Epochs         int64   `json:"epochs"`
	CyclesPerSync  float64 `json:"cycles_per_sync"`
	WorkPct        float64 `json:"work_pct"`
	ReleaseWaitPct float64 `json:"release_wait_pct"`
	PublishWaitPct float64 `json:"publish_wait_pct"`
	BarrierWaitPct float64 `json:"barrier_wait_pct"`
	PreHookPct     float64 `json:"pre_hook_pct"`
	PostHookPct    float64 `json:"post_hook_pct"`
	SerialHooksPct float64 `json:"serial_hooks_pct"`
	ImbalancePct   float64 `json:"imbalance_pct"`
	AttributedPct  float64 `json:"attributed_pct"`
}

// ExecReport is the exported profile: per-lane phase histogram summaries
// plus the wall-time attribution.
type ExecReport struct {
	Workers     int          `json:"workers"`
	Cycles      int64        `json:"cycles"`
	WallNS      int64        `json:"wall_ns"`
	Lanes       []LaneReport `json:"lanes"`
	Attribution Attribution  `json:"attribution"`
}

// phaseLabel maps a phase to its report name, applying the work labels.
func (p *ExecProfiler) phaseLabel(ph Phase) string {
	switch ph {
	case PhaseWorkA:
		return p.labelA
	case PhaseWorkB:
		return p.labelB
	}
	return ph.String()
}

// Report builds the profile report. Safe to call concurrently with
// recording (the telemetry snapshot path does); numbers are then a
// consistent-enough live view, not a quiescent one.
func (p *ExecProfiler) Report() *ExecReport {
	if p == nil {
		return nil
	}
	r := &ExecReport{
		Workers: p.workers,
		Cycles:  p.cycles.Load(),
		WallNS:  p.wallNS.Load(),
	}
	workerPhases := []Phase{PhaseBarrierRelease, PhaseEpochDrain, PhaseWorkA, PhaseWorkB, PhaseBarrierPublish}
	coordPhases := []Phase{PhasePreHook, PhaseCycleSpan, PhasePostHook}
	var sumWork, maxWork, sumRelease, sumPublish, sumAttr int64
	for w := 0; w < p.workers; w++ {
		lane := LaneReport{Lane: fmt.Sprintf("w%d", w)}
		var work int64
		for _, ph := range workerPhases {
			h := &p.lanes[w][ph]
			n, total := h.Count(), h.SumNS()
			if n == 0 && total == 0 {
				continue
			}
			pr := PhaseReport{
				Phase: p.phaseLabel(ph), Count: n, TotalNS: total,
				P99NS: h.P99NS(), MaxNS: h.MaxNS(),
			}
			if n > 0 {
				pr.MeanNS = float64(total) / float64(n)
			}
			if ph <= PhaseWorkB {
				pr.Stepped, pr.Skipped = p.steps[w][2*ph].Load(), p.steps[w][2*ph+1].Load()
			}
			lane.Phases = append(lane.Phases, pr)
			sumAttr += total
			switch ph {
			case PhaseWorkA, PhaseWorkB, PhaseEpochDrain:
				// The epoch drain delivers cross-worker flits — useful
				// work, not synchronization wait.
				work += total
			case PhaseBarrierRelease:
				sumRelease += total
			case PhaseBarrierPublish:
				sumPublish += total
			}
		}
		lane.WorkNS = work
		sumWork += work
		if work > maxWork {
			maxWork = work
		}
		r.Lanes = append(r.Lanes, lane)
	}
	coord := LaneReport{Lane: "coord"}
	var preNS, postNS int64
	for _, ph := range coordPhases {
		h := &p.lanes[p.workers][ph]
		n, total := h.Count(), h.SumNS()
		if n == 0 && total == 0 {
			continue
		}
		pr := PhaseReport{
			Phase: p.phaseLabel(ph), Count: n, TotalNS: total,
			P99NS: h.P99NS(), MaxNS: h.MaxNS(),
		}
		if n > 0 {
			pr.MeanNS = float64(total) / float64(n)
		}
		coord.Phases = append(coord.Phases, pr)
		switch ph {
		case PhasePreHook:
			preNS = total
		case PhasePostHook:
			postNS = total
		}
	}
	r.Lanes = append(r.Lanes, coord)

	a := &r.Attribution
	a.WallNS, a.Cycles = r.WallNS, r.Cycles
	a.Epochs = p.epochs.Load()
	if a.Epochs > 0 {
		a.CyclesPerSync = float64(a.Cycles) / float64(a.Epochs)
	}
	if r.WallNS > 0 {
		capacity := float64(p.workers) * float64(r.WallNS)
		pct := func(ns int64) float64 { return 100 * float64(ns) / capacity }
		a.WorkPct = pct(sumWork)
		a.ReleaseWaitPct = pct(sumRelease)
		a.PublishWaitPct = pct(sumPublish)
		a.BarrierWaitPct = a.ReleaseWaitPct + a.PublishWaitPct
		a.PreHookPct = 100 * float64(preNS) / float64(r.WallNS)
		a.PostHookPct = 100 * float64(postNS) / float64(r.WallNS)
		a.SerialHooksPct = a.PreHookPct + a.PostHookPct
		if p.workers > 1 {
			a.AttributedPct = pct(sumAttr)
		} else {
			// Inline worker: no barrier waits shadow the hooks, so
			// wall = hooks + work + loop ε.
			a.AttributedPct = 100 * float64(sumAttr+preNS+postNS) / float64(r.WallNS)
		}
	}
	if p.workers > 1 && sumWork > 0 {
		mean := float64(sumWork) / float64(p.workers)
		a.ImbalancePct = 100 * (float64(maxWork) - mean) / mean
	}
	return r
}

// Text renders the report as an aligned human-readable block.
func (r *ExecReport) Text() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	a := r.Attribution
	fmt.Fprintf(&b, "executor profile: %d workers, %d cycles, wall %.3f ms\n",
		r.Workers, r.Cycles, float64(r.WallNS)/1e6)
	if a.Epochs > 0 && a.Epochs != a.Cycles {
		fmt.Fprintf(&b, "  epoch sync: %d epochs, %.1f cycles/sync\n", a.Epochs, a.CyclesPerSync)
	}
	fmt.Fprintf(&b, "  attribution (of %d worker-lanes x wall): work %.1f%%  barrier wait %.1f%% (release %.1f%%, publish/skew %.1f%%)  attributed %.1f%%\n",
		r.Workers, a.WorkPct, a.BarrierWaitPct, a.ReleaseWaitPct, a.PublishWaitPct, a.AttributedPct)
	fmt.Fprintf(&b, "  serial hooks (of wall): pre %.1f%%  post %.1f%%  | work imbalance (max-mean)/mean: %.1f%%\n",
		a.PreHookPct, a.PostHookPct, a.ImbalancePct)
	for _, lane := range r.Lanes {
		fmt.Fprintf(&b, "  lane %-6s work %.3f ms\n", lane.Lane, float64(lane.WorkNS)/1e6)
		for _, ph := range lane.Phases {
			fmt.Fprintf(&b, "    %-16s count %-9d total %10.3f ms  mean %8.0f ns  p99 %10d ns  max %10d ns",
				ph.Phase, ph.Count, float64(ph.TotalNS)/1e6, ph.MeanNS, ph.P99NS, ph.MaxNS)
			if all := ph.Stepped + ph.Skipped; all > 0 {
				fmt.Fprintf(&b, "  stepped %d  skipped %d (%.1f%% asleep)", ph.Stepped, ph.Skipped, 100*float64(ph.Skipped)/float64(all))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// JSON renders the report as indented JSON.
func (r *ExecReport) JSON() []byte {
	if r == nil {
		return nil
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic("sim: exec report marshal failed")
	}
	return b
}

// ChromeEvents emits the retained ring records as Chrome trace_event
// JSON objects via emit (one object per call, no separators), matching
// the packet tracer's timebase: one simulated cycle is one microsecond
// of trace time, and each epoch's lane timings are scaled into the slot of
// the cycles it ran — [cycle, cycle+len) µs — so executor lanes align with
// the packet lifecycle events of the same cycles. Lanes land on pid 2
// ("executor"); args carry the unscaled nanosecond durations.
func (p *ExecProfiler) ChromeEvents(emit func(format string, args ...any) error) error {
	if p == nil || p.ring == nil {
		return nil
	}
	if err := emit(`{"name":"process_name","ph":"M","pid":2,"args":{"name":"executor"}}`); err != nil {
		return err
	}
	for w := 0; w <= p.workers; w++ {
		name := fmt.Sprintf("w%d", w)
		if w == p.workers {
			name = "coord"
		}
		if err := emit(`{"name":"thread_name","ph":"M","pid":2,"tid":%d,"args":{"name":%q}}`, w, name); err != nil {
			return err
		}
	}
	recs := p.Recent()
	// Index the coordinator record per epoch (keyed by its first cycle):
	// its span is the epoch's wall width and its fourth word the epoch's
	// length in cycles, against which every lane's phases are scaled.
	type epoch struct{ start, wall, cycles int64 }
	epochs := make(map[int64]epoch)
	for _, rec := range recs {
		if rec.Lane == p.workers {
			epochs[rec.Cycle] = epoch{rec.Start, rec.Durs[0] + rec.Durs[1] + rec.Durs[2], rec.Durs[3]}
		}
	}
	workerNames := [4]string{"barrier-release", p.labelA, p.labelB, "barrier-publish"}
	coordNames := [4]string{"pre-hook", "cycle-span", "post-hook", ""}
	for _, rec := range recs {
		ep := epochs[rec.Cycle]
		if ep.wall <= 0 {
			continue
		}
		scale := float64(ep.cycles) / float64(ep.wall) // trace µs per wall ns
		names := &workerNames
		if rec.Lane == p.workers {
			names = &coordNames
		}
		off := rec.Start - ep.start
		for i, d := range rec.Durs {
			if d <= 0 || names[i] == "" {
				off += d
				continue
			}
			ts := float64(rec.Cycle) + float64(off)*scale
			dur := float64(d) * scale
			if err := emit(`{"name":%q,"cat":"executor","ph":"X","ts":%.6f,"dur":%.6f,"pid":2,"tid":%d,"args":{"ns":%d,"cycle":%d}}`,
				names[i], ts, dur, rec.Lane, d, rec.Cycle); err != nil {
				return err
			}
			off += d
		}
	}
	return nil
}
