package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"stashsim/internal/metrics"
	"stashsim/internal/network"
	"stashsim/internal/sim"
	"stashsim/internal/stats"
	"stashsim/internal/trace"
	"stashsim/internal/tracegen"
)

// record is the full outcome of one run of one workload: the operation
// the benchmark counts. Failures is empty when every check passed.
type record struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  int                `json:"seconds"`
	Traced   bool               `json:"traced"`
	Failures []string           `json:"failures"`
	Metrics  map[string]float64 `json:"metrics"`
	// Digest fingerprints the simulated outcome (counters, delivery
	// totals, latency accumulator). Equal inputs must give equal digests
	// on any worker count, with tracing on or off.
	Digest string `json:"digest"`
}

func (r *record) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// block is one timed piece of a run.
type block struct {
	cycles, flits int64
	sec           float64
	drain         bool
}

// constructions is how many times a run sets up before keeping the
// last set-up, so that setup_s rests on a median. Each discarded network
// is collected before the next is built, which keeps the repeats out of
// peak_rss_mb.
const constructions = 3

// run carries one execution of one workload.
type run struct {
	w    workload
	seed uint64
	tr   *tracer // nil unless traced
	rec  *record
	host *hostProbe

	newS     []float64 // network.New + wiring, per construction
	genS     []float64 // trace generation, per round
	setupS   []float64 // everything a round or run does before measuring
	warmupS  float64
	encodeS  []float64 // Network.Checkpoint calls
	decodeS  []float64 // Network.Restore calls
	snapshot int       // checkpoint size in bytes
	blocks   []block

	// Go runtime deltas summed over the timed region.
	mem0                           runtime.MemStats
	mallocs, allocBytes, gcPauseNS uint64
	gcCycles                       uint32

	net        *network.Network  // the network the simulated statistics come from
	reg        *metrics.Registry // traced runs only
	prof0      *sim.ExecReport   // profiler state when the timed region began
	prof1      *sim.ExecReport   // and when it ended
	accepted   float64           // NormalizedAccepted over the measured window
	runtimeCyc int64             // Replay.Run result
	msgs       int
}

// runWorkload executes one sized workload and never panics: a panic in
// the simulator is a failed operation, not a crashed benchmark.
func runWorkload(w workload, seed uint64, traced bool, outDir string) (rec *record) {
	rec = &record{Workload: w.name, Seed: seed, Seconds: w.seconds, Traced: traced, Metrics: map[string]float64{}}
	r := &run{w: w, seed: seed, rec: rec, host: newHostProbe(w.probeSteps, w.workers > 1)}
	r.host.sample()
	if traced {
		r.tr = newTracer(fmt.Sprintf("%s-seed%d", w.name, seed))
	}
	defer func() {
		if p := recover(); p != nil {
			rec.failf("panic: %v", p)
		}
		if r.tr == nil {
			return
		}
		finish(r.tr.spans)
		// The root span's self time: the benchmark's own code.
		rec.Metrics["bench.self_s"] = r.tr.spans[0].Self
		if err := r.tr.write(outDir); err != nil {
			rec.failf("writing spans: %v", err)
		}
	}()
	var err error
	r.tr.span("bench.run", func() {
		switch w.kind {
		case rateDriven:
			err = r.runRate()
		case replay:
			err = r.runReplay()
		case resume:
			err = r.runResume()
		}
	})
	if err != nil {
		rec.failf("%v", err)
		return rec
	}
	r.report()
	return rec
}

// construct builds and wires one network, timing the two steps.
func (r *run) construct() (*network.Network, float64, error) {
	var (
		n   *network.Network
		err error
	)
	d := r.tr.span("network.New", func() {
		cfg := r.w.config(r.seed)
		if err = r.w.checkSteadyState(cfg); err != nil {
			return
		}
		n, err = network.New(cfg)
	})
	if err != nil {
		return nil, 0, err
	}
	d += r.tr.span("traffic.wire", func() { r.w.wire(n, r.seed) })
	r.newS = append(r.newS, d.Seconds())
	return n, d.Seconds(), nil
}

// constructRepeatedly builds the network constructions times and keeps
// the last, with at most one live at a time and a probe sample after
// each.
func (r *run) constructRepeatedly() (*network.Network, error) {
	var n *network.Network
	for i := 0; i < constructions; i++ {
		n = nil
		runtime.GC()
		var err error
		if n, _, err = r.construct(); err != nil {
			return nil, err
		}
		r.host.sample()
	}
	return n, nil
}

// observe attaches the traced pass's instruments: the metrics registry
// for component counts and, where Run goes through the executor, its
// stall profiler. Untraced runs attach nothing.
func (r *run) observe(n *network.Network) {
	if r.tr == nil {
		return
	}
	r.reg = metrics.NewRegistry()
	n.EnableMetrics(r.reg)
	if r.w.kind == rateDriven {
		n.EnableExecProfile(0)
	}
}

// goBegin and goEnd bracket a stretch of the timed region and add what
// it cost the Go runtime to the run's totals.
func (r *run) goBegin() { runtime.ReadMemStats(&r.mem0) }

func (r *run) goEnd() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.mallocs += m.Mallocs - r.mem0.Mallocs
	r.allocBytes += m.TotalAlloc - r.mem0.TotalAlloc
	r.gcPauseNS += m.PauseTotalNs - r.mem0.PauseTotalNs
	r.gcCycles += m.NumGC - r.mem0.NumGC
}

// timed runs fn as one timed block on n, recording the cycles and flit
// hops it advanced. extra is time already spent on this block's behalf
// (a warm-resume round's construction and restore).
func (r *run) timed(n *network.Network, name string, extra float64, fn func()) {
	c0, f0 := int64(n.Now), n.Counters().FlitsSwitched
	r.goBegin()
	d := r.tr.span(name, fn).Seconds()
	r.goEnd()
	r.host.sample()
	r.blocks = append(r.blocks, block{
		cycles: int64(n.Now) - c0,
		flits:  n.Counters().FlitsSwitched - f0,
		sec:    d + extra,
	})
}

func (r *run) runRate() error {
	w := r.w
	if w.workers > runtime.NumCPU() {
		return fmt.Errorf("%s steps the network with %d workers but this host has %d CPU: refusing to run oversubscribed",
			w.name, w.workers, runtime.NumCPU())
	}
	n, err := r.constructRepeatedly()
	if err != nil {
		return err
	}
	r.observe(n)
	r.warmupS = r.tr.span("network.Warmup", func() {
		if w.workers > 1 {
			// Warm up serially but for the last stretch, which builds the
			// executor and starts its workers before anything is timed.
			// Two workers and a spinning coordinator on two CPUs swing
			// far more than the serial loop does, and setup_s is held to
			// a bound between sets of runs; the timed region is where
			// the executor is measured. The handover is exact (the
			// simulator's TestSetWorkersMidRunExact), and two warm-ups
			// in a row leave the collectors as one long one would.
			tail := min(w.block, w.warmup/2)
			n.Warmup(w.warmup - tail)
			n.SetWorkers(w.workers)
			n.Warmup(tail)
			return
		}
		n.Warmup(w.warmup)
	}).Seconds()
	if w.workers > 1 {
		defer n.Close()
	}
	r.setupS = []float64{median(r.newS) + r.warmupS}

	runtime.GC()
	r.prof0 = n.Profiler.Report()
	for i := 0; i < w.nblocks; i++ {
		r.timed(n, "network.Run", 0, func() { n.Run(w.block) })
	}
	// Before the drain: afterwards every injected flit has been delivered
	// and the fraction would only restate the offered load.
	r.accepted = n.NormalizedAccepted(w.block * int64(w.nblocks))
	if w.drain > 0 {
		for _, ep := range n.Endpoints {
			ep.Gen = nil
		}
		drained := false
		r.timed(n, "network.Drain", 0, func() { drained = n.Drain(w.drain) })
		r.blocks[len(r.blocks)-1].drain = true
		if !drained {
			r.rec.failf("did not drain within %d cycles", w.drain)
		}
	}
	// Read the profiler before the deferred Close resizes it away.
	r.prof1 = n.Profiler.Report()
	r.net = n
	return nil
}

func (r *run) runReplay() error {
	w := r.w
	for i := 0; i < w.nblocks; i++ {
		// Set-up is milliseconds here, so each round sets up several
		// times and keeps the last; setup_s is the median of all.
		var (
			tr *trace.Trace
			n  *network.Network
			rp *trace.Replay
		)
		for k := 0; k < constructions; k++ {
			tr, n, rp = nil, nil, nil
			runtime.GC()
			cfg := w.config(r.seed)
			gen := r.tr.span("tracegen.MiniFE", func() {
				tr = tracegen.MiniFE(tracegen.Scale{Ranks: cfg.Topo.NumEndpoints(), Bytes: 1, Iters: w.iters})
			}).Seconds()
			r.genS = append(r.genS, gen)
			var built float64
			var err error
			if n, built, err = r.construct(); err != nil {
				return err
			}
			prep := r.tr.span("trace.NewReplay", func() { rp, err = trace.NewReplay(tr, n, 0) }).Seconds()
			if err != nil {
				return err
			}
			r.setupS = append(r.setupS, gen+built+prep)
			r.host.sample()
		}
		r.observe(n)

		runtime.GC()
		var cycles int64
		var err error
		r.timed(n, "trace.Replay.Run", 0, func() { cycles, err = rp.Run(w.replayBudget) })
		if err != nil {
			return err
		}
		if i > 0 && cycles != r.runtimeCyc {
			r.rec.failf("replay round %d took %d simulated cycles, round 0 took %d", i, cycles, r.runtimeCyc)
		}
		r.runtimeCyc, r.msgs = cycles, tr.TotalMessages()
		r.accepted = n.NormalizedAccepted(cycles)
		r.net = n
	}
	return nil
}

func (r *run) runResume() error {
	w := r.w
	src, err := r.constructRepeatedly()
	if err != nil {
		return err
	}
	r.observe(src)
	srcNew := median(r.newS)
	r.warmupS = r.tr.span("network.Warmup", func() { src.Warmup(w.warmup) }).Seconds()
	// Checkpoint write time swings with the GC (a 34 MB buffer grown by
	// append), so it is sampled a few times and kept out of the timed
	// region; the traced pass samples more for the min/median pair.
	var data []byte
	encodes := 1
	if r.tr != nil {
		encodes = 3
	}
	for i := 0; i < encodes; i++ {
		r.encodeS = append(r.encodeS, r.tr.span("network.Checkpoint", func() { data = src.Checkpoint(src.Now) }).Seconds())
	}
	r.snapshot = len(data)
	r.setupS = []float64{srcNew + r.warmupS + median(r.encodeS)}

	var restored *network.Network
	for i := 0; i < w.nblocks; i++ {
		restored = nil // one restored network live at a time
		runtime.GC()
		r.goBegin()
		n, built, err := r.construct()
		if err != nil {
			return err
		}
		r.observe(n)
		dec := r.tr.span("network.Restore", func() { err = n.Restore(data) }).Seconds()
		r.goEnd()
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		r.decodeS = append(r.decodeS, dec)
		if i == 0 {
			// Outside the timed pieces: a restored network must
			// checkpoint back to the bytes it was restored from.
			r.tr.span("check.recheckpoint", func() {
				if again := n.Checkpoint(n.Now); !bytes.Equal(again, data) {
					r.rec.failf("re-checkpoint of the restored network differs from the original (%d vs %d bytes)", len(again), len(data))
				}
			})
		}
		r.timed(n, "network.Run", built+dec, func() { n.Run(w.block) })
		restored = n
	}
	// The source, run on by the same cycles, must land where the
	// restored networks did.
	r.tr.span("check.source", func() { src.Run(w.block) })
	if a, b := digest(src, w), digest(restored, w); a != b {
		r.rec.failf("source and restored networks diverged after %d cycles:\n source   %s\n restored %s", w.block, a, b)
	}
	r.accepted = restored.NormalizedAccepted(w.block)
	r.net = restored
	return nil
}

// digest fingerprints everything simulated that the benchmark reports.
func digest(n *network.Network, w workload) string {
	injected, delivered, dups, abandoned := n.DeliveryTotals()
	col := n.Collector()
	return fmt.Sprintf("now=%d %+v injected=%d delivered=%d dups=%d abandoned=%d lat=%+v recovered=%d",
		n.Now, n.Counters(), injected, delivered, dups, abandoned, col.LatAcc[w.class], col.RecoveredPkts)
}

// report runs the correctness checks and fills every metric.
func (r *run) report() {
	w, n, rec := r.w, r.net, r.rec
	m := rec.Metrics
	col := n.Collector()
	lat := col.LatAcc[w.class]
	c := n.Counters()
	injected, delivered, dups, abandoned := n.DeliveryTotals()
	rec.Digest = digest(n, w)

	if err := n.SanityCheck(); err != nil {
		rec.failf("sanity check: %v", err)
	}
	if lat.N == 0 {
		rec.failf("no packet of the measured class was delivered")
	}
	if w.dropRate > 0 {
		if delivered != injected {
			rec.failf("injected %d packets but delivered %d", injected, delivered)
		}
		if abandoned != 0 {
			rec.failf("%d packets abandoned", abandoned)
		}
		if col.RecoveredPkts == 0 {
			rec.failf("no packet was recovered: the fault plan had no effect")
		}
		if c.StashReconstructed == 0 {
			rec.failf("no stash copy was reconstructed from parity")
		}
	}
	if w.hotspots > 0 {
		if c.StashRetrieves == 0 {
			rec.failf("no stash retrieves: congestion stashing never engaged")
		}
		if c.ECNMarks == 0 {
			rec.failf("no ECN marks: the hotspots never congested an input")
		}
	}

	// End to end. Host times are plain sums over the timed blocks, put
	// on the reference host's clock by the probe (see probe.go). The
	// drain counts towards wall_s and stays out of the rates: it steps
	// an emptying network.
	slow := r.host.slowdown()
	var wall, cycles, flits, ratedSec, ratedCycles, ratedFlits float64
	var secs []float64
	var drain block
	for _, b := range r.blocks {
		wall += b.sec
		cycles += float64(b.cycles)
		flits += float64(b.flits)
		if b.drain {
			drain = b
			continue
		}
		secs = append(secs, b.sec)
		ratedSec += b.sec
		ratedCycles += float64(b.cycles)
		ratedFlits += float64(b.flits)
	}
	m["bench.raw_setup_s"] = median(r.setupS)
	m["bench.raw_wall_s"] = wall
	wall /= slow
	m["setup_s"] = median(r.setupS) / slow
	m["wall_s"] = wall
	m["sim_cycles_per_s"] = ratio(ratedCycles, ratedSec) * slow
	m["flit_hops_per_s"] = ratio(ratedFlits, ratedSec) * slow
	m["peak_rss_mb"] = peakRSSMB()
	m["sim_latency_mean_ns"] = lat.Mean() / 1.3
	m["sim_latency_p99_ns"] = percentile(col.LatHist[w.class], 0.99, lat.Max) / 1.3
	m["sim_accepted_frac"] = r.accepted

	// Per layer. Counts cover the reporting network's whole life, warm-up
	// included; they repeat exactly for a fixed seed.
	mb := float64(r.snapshot) / 1e6
	m["network.new_s"] = median(r.newS)
	m["network.warmup_s"] = r.warmupS
	m["network.drain_s"] = drain.sec
	m["network.drain_cycles"] = float64(drain.cycles)
	m["endpoint.injected_pkts"] = float64(injected)
	m["endpoint.delivered_pkts"] = float64(delivered)
	m["endpoint.retransmits"] = float64(col.EndpointRetransmits)
	m["endpoint.dups_suppressed"] = float64(dups)
	m["core.flits_switched"] = float64(c.FlitsSwitched)
	m["core.flits_sent"] = float64(c.FlitsSent)
	m["core.col_flits"] = float64(r.reg.Sum("col.flits"))
	m["core.tile_grants"] = float64(r.reg.Sum("grants"))
	m["core.credit_stall_cycles"] = float64(n.TotalCreditStallCycles())
	m["core.ecn_marks"] = float64(c.ECNMarks)
	m["core.sideband_msgs"] = float64(c.SidebandMsgs)
	m["buffer.stash_stores"] = float64(c.StashStores)
	m["buffer.stash_retrieves"] = float64(c.StashRetrieves)
	m["buffer.stash_full_stalls"] = float64(c.StashFullStalls)
	m["buffer.stash_resident_flits"] = float64(n.TotalStashUsed())
	m["buffer.parity_groups_sealed"] = float64(c.ParityGroupsSealed)
	m["buffer.stash_reconstructed"] = float64(c.StashReconstructed)
	fs := n.FaultStats()
	m["fault.pkts_dropped"] = float64(fs.PktsDropped)
	m["fault.stash_copies_lost"] = float64(fs.StashCopiesLost)
	m["fault.recovered_pkts"] = float64(col.RecoveredPkts)
	m["fault.recovery_mean_ns"] = col.RecoveryAcc.Mean() / 1.3
	var replayS float64 // median Replay.Run call
	if w.kind == replay {
		replayS = median(secs)
	}
	m["trace.replay_run_s"] = replayS
	m["trace.msgs"] = float64(r.msgs)
	m["trace.sim_runtime_cycles"] = float64(r.runtimeCyc)
	m["trace.ns_per_sim_cycle"] = ratio(replayS*1e9, float64(r.runtimeCyc))
	m["tracegen.generate_s"] = median(r.genS)
	encodeMin, _ := extent(r.encodeS)
	m["snapshot.encode_s_min"] = encodeMin
	m["snapshot.encode_s_med"] = median(r.encodeS)
	m["snapshot.decode_s_med"] = median(r.decodeS)
	m["snapshot.encode_mb_per_s"] = ratio(mb, median(r.encodeS))
	m["snapshot.decode_mb_per_s"] = ratio(mb, median(r.decodeS))
	m["snapshot.bytes"] = float64(r.snapshot)
	m["go.allocs_per_kcycle"] = ratio(float64(r.mallocs), cycles/1000)
	m["go.bytes_per_kcycle"] = ratio(float64(r.allocBytes), cycles/1000)
	m["go.gc_cycles"] = float64(r.gcCycles)
	m["go.gc_pause_ms"] = float64(r.gcPauseNS) / 1e6
	r.reportExec(r.prof1, flits)
	m["bench.host_slowdown"] = slow
	if r.tr != nil {
		m["bench.traced_wall_s"] = wall
	}
}

// reportExec fills the endpoint, core and sim time metrics from the
// executor profiler's counters over the timed region. Runs without a
// profiler (untraced, replay, resume) leave them 0.
func (r *run) reportExec(end *sim.ExecReport, flits float64) {
	m := r.rec.Metrics
	var wallNS, cycles, epochs float64
	phase := map[string]float64{} // summed over every lane
	var work []float64            // per worker: its three working phases
	if end != nil {
		wallNS = float64(end.WallNS - r.prof0.WallNS)
		cycles = float64(end.Cycles - r.prof0.Cycles)
		epochs = float64(end.Attribution.Epochs - r.prof0.Attribution.Epochs)
		for i, lane := range end.Lanes {
			var w float64
			for _, p := range lane.Phases {
				d := float64(p.TotalNS - phaseNS(r.prof0, i, p.Phase))
				phase[p.Phase] += d
				switch p.Phase {
				case "endpoints", "switches", "epoch-drain":
					w += d
				}
			}
			if lane.Lane != "coord" {
				work = append(work, w)
			}
		}
	}
	capacity := wallNS * float64(len(work))
	m["endpoint.step_s"] = phase["endpoints"] / 1e9
	m["endpoint.step_frac"] = ratio(phase["endpoints"], capacity)
	m["core.switch_step_s"] = phase["switches"] / 1e9
	m["core.switch_step_frac"] = ratio(phase["switches"], capacity)
	m["core.ns_per_switch_cycle"] = ratio(phase["switches"], cycles*float64(len(r.net.Switches)))
	m["core.ns_per_flit_hop"] = ratio(phase["switches"], flits)
	m["sim.work_frac"] = ratio(phase["endpoints"]+phase["switches"]+phase["epoch-drain"], capacity)
	m["sim.barrier_wait_frac"] = ratio(phase["barrier-release"]+phase["barrier-publish"], capacity)
	m["sim.epoch_drain_frac"] = ratio(phase["epoch-drain"], capacity)
	m["sim.serial_hooks_frac"] = ratio(phase["pre-hook"]+phase["post-hook"], wallNS)
	var sum, max float64
	for _, w := range work {
		sum += w
		max = math.Max(max, w)
	}
	mean := ratio(sum, float64(len(work)))
	m["sim.imbalance_frac"] = ratio(max-mean, mean)
	m["sim.cycles_per_sync"] = ratio(cycles, epochs)
}

// phaseNS looks up a phase's total in an earlier report of the same
// profiler (lanes keep their order; a phase not yet seen reads 0).
func phaseNS(rep *sim.ExecReport, lane int, phase string) int64 {
	if lane >= len(rep.Lanes) {
		return 0
	}
	for _, p := range rep.Lanes[lane].Phases {
		if p.Phase == phase {
			return p.TotalNS
		}
	}
	return 0
}

// percentile reads the q-quantile off a latency histogram, linearly
// interpolated inside the bucket it falls in (between that bucket's low
// edge and the next occupied bucket's, or the largest observation for
// the last bucket). Hist.Percentile returns the bucket's low edge, which
// is the same number for every seed whose tail lands in one 3%-wide
// bucket; this keeps the digits the histogram does hold.
func percentile(h *stats.Hist, q, max float64) float64 {
	pts := h.InverseCDF()
	above := 1.0 // fraction of observations in this bucket or beyond
	for i, p := range pts {
		if p.Fraction <= 1-q {
			hi := max
			if i+1 < len(pts) {
				hi = float64(pts[i+1].Value)
			}
			lo := float64(p.Value)
			return lo + (hi-lo)*ratio(above-(1-q), above-p.Fraction)
		}
		above = p.Fraction
	}
	return max
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's high-water resident set (VmHWM). Each
// run is its own process, so this is the run's own peak. Where /proc is
// missing it falls back to what the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if kb, err := vmHWMkB(); err == nil {
		return float64(kb) / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func vmHWMkB() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
