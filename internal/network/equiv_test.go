package network

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"io"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/endpoint"
	"stashsim/internal/fault"
	"stashsim/internal/metrics"
	"stashsim/internal/proto"
	"stashsim/internal/sim"
	"stashsim/internal/topo"
	"stashsim/internal/traffic"
)

// The differential table. The stash may change where a packet waits, never
// what is delivered, and the executor may change how the network is
// stepped, never what it computes: every way of running a network must
// leave the same machine. The executor takes two liberties: it steps a
// component only when its wake slot is due, which is safe because "a
// spurious wake is a no-op", and it runs one block through a whole epoch
// before it touches the next, which is safe because "nothing a block is
// sent during an epoch is due inside it". The public API already contains
// a run that takes neither: every run entry starts all awake and no epoch
// outlasts the run, so a network advanced one Run(1) at a time steps every
// component, every cycle, the whole network through cycle c before any of
// it sees c+1. That is the reference, and any other way of running must
// agree with it on everything observable: the summary statistics -json
// prints, every endpoint's delivery sequence, and the complete machine
// state — its StateDigest, the checkpoint walk of the model hashed — at
// chosen cycles. Waking early can never show; waking late, or meeting input
// out of its time, shows as the first digest that differs.
//
// So the table has one list of regimes (how the network behaves), one
// script per regime, one reference run per (preset, regime), computed once
// and shared, and one comparator (wakeObs.mustEqual). Every test that runs
// a network two ways is a list of rows, and a row names one way to run: a
// worker count, an epoch cap, a chunking into public Run calls, a hand-off
// at a mid-epoch cycle (SetWorkers, Close, 600 Step calls, or a checkpoint
// restored onto the opposite worker count and cap) and whether the
// observer set is attached. Each row also checks that it ran as labelled.

// runner is the run entries a row uses besides Run: the network's own, or
// the reference's.
type runner interface {
	Run(cycles int64)
	RunUntil(budget, checkEvery int64, done func() bool) bool
	Warmup(cycles int64)
	Drain(budget int64) bool
}

// reference advances a network one public Run(1) per cycle. RunUntil,
// Warmup and Drain are the network's own, word for word, over that Run, so
// stop checks and the drain's check schedule fall on the same cycles.
type reference struct{ n *Network }

func (r reference) Run(cycles int64) {
	for ; cycles > 0; cycles-- {
		r.n.Run(1)
	}
}

func (r reference) RunUntil(budget, checkEvery int64, done func() bool) bool {
	for spent := int64(0); spent < budget; spent += checkEvery {
		r.Run(min(checkEvery, budget-spent))
		if done() {
			return true
		}
	}
	return done()
}

func (r reference) Warmup(cycles int64) {
	r.n.Collectors.SetEnabled(false)
	r.Run(cycles)
	r.n.Collectors.Reset()
	r.n.Collectors.SetEnabled(true)
}

func (r reference) Drain(budget int64) bool {
	return r.RunUntil(budget, drainCheckEvery, r.n.drained)
}

// every is an Observer that names every k-th cycle and calls at, if set,
// after it: the way to hold a network to epochs of at most k cycles — 1
// forces a barrier after every cycle — from outside, and to look at it
// there.
type every struct {
	k  int64
	at func(now int64)
}

func (e every) NextEventAt(from int64) int64 { return sim.NextMultiple(from, e.k) }

func (e every) AtBarrier(now int64) {
	if e.at != nil {
		e.at(now)
	}
}

// wakeObs is everything a run lets an observer see. It is the table's one
// comparator.
type wakeObs struct {
	at         []int64  // cycles still to digest
	cycles     []int64  // cycles at which trail was taken
	trail      []uint64 // StateDigest at those cycles
	full       bool     // the observer set is attached: digest whole checkpoints too
	ckpts      []uint64 // with full: the checkpoint's crc64 at those cycles, then at the end
	keep       bool     // also keep the checkpoint bytes of the first cycle
	first      []byte   // those bytes, for a test that restores from them
	final      uint64   // StateDigest when the drive returned
	summary    []byte   // the statistics the CLI's -json is made of
	deliveries [][]endpoint.Delivery
	perEP      [][2]int64   // each endpoint's InjectedPkts, DeliveredUnique
	sampler    string       // with full: the sampler's CSV
	watchdog   bytes.Buffer // what the watchdogs wrote
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// observe starts recording n's deliveries and schedules a state digest at
// the serial barrier before each of the given cycles (ascending).
func observe(n *Network, at ...int64) *wakeObs {
	o := &wakeObs{at: at}
	o.attach(n)
	return o
}

// attach points o at n, a network that continues the run o has seen so
// far: its deliveries, and a digest before each of o's cycles still to come.
func (o *wakeObs) attach(n *Network) {
	if o.deliveries == nil {
		o.deliveries = make([][]endpoint.Delivery, len(n.Endpoints))
	}
	for i, ep := range n.Endpoints {
		i := i
		ep.OnDelivered = func(d endpoint.Delivery) { o.deliveries[i] = append(o.deliveries[i], d) }
	}
	o.schedule(n)
}

func (o *wakeObs) schedule(n *Network) {
	if len(o.at) == 0 {
		return
	}
	n.ScheduleCheckpoint(o.at[0], func(now sim.Tick) {
		if o.keep && len(o.trail) == 0 {
			o.first = n.Checkpoint(now)
		}
		o.cycles = append(o.cycles, int64(now))
		o.trail = append(o.trail, n.StateDigest())
		if o.full {
			o.ckpts = append(o.ckpts, crc64.Checksum(n.Checkpoint(now), crcTable))
		}
		o.at = o.at[1:]
		o.schedule(n)
	})
}

// everyCycle returns the cycles from..to-1, for a digest after every
// cycle of a window: a component that wakes even one cycle late shows. In
// -short mode (the race pass, which is after data races, not late wakes)
// it thins the window to every seventh cycle.
func everyCycle(from, to int64) []int64 {
	step := int64(1)
	if testing.Short() {
		step = 7
	}
	var at []int64
	for c := from; c < to; c += step {
		at = append(at, c)
	}
	return at
}

// finish closes the observation with the final state and the summary.
func (o *wakeObs) finish(n *Network) *wakeObs {
	o.final = n.StateDigest()
	if o.full {
		o.ckpts = append(o.ckpts, crc64.Checksum(n.Checkpoint(n.Now), crcTable))
		o.sampler = Observed[*metrics.Sampler](n).CSV()
	}
	for _, ep := range n.Endpoints {
		o.perEP = append(o.perEP, [2]int64{ep.InjectedPkts, ep.DeliveredUnique})
	}
	col := n.Collector()
	injected, delivered, dups, abandoned := n.DeliveryTotals()
	sum := struct {
		Now                                   int64
		Counters                              core.Counters
		Fault                                 fault.Stats
		Injected, Delivered, Dups, Abandoned  int64
		Offered, DeliveredFlits, DeliveredPkt [proto.NumClasses]int64
		LatMean, LatMax                       [proto.NumClasses]float64
		Acks, Retransmits, Recovered          int64
		StashUsed                             int
		Queued                                int64
	}{
		Now: int64(n.Now), Counters: n.Counters(), Fault: n.FaultStats(),
		Injected: injected, Delivered: delivered, Dups: dups, Abandoned: abandoned,
		Offered: col.OfferedFlits, DeliveredFlits: col.DeliveredFlits, DeliveredPkt: col.DeliveredPkts,
		Acks: col.Acks, Retransmits: col.EndpointRetransmits, Recovered: col.RecoveredPkts,
		StashUsed: n.TotalStashUsed(), Queued: n.TotalQueuedFlits(),
	}
	for c := range col.LatAcc {
		sum.LatMean[c], sum.LatMax[c] = col.LatAcc[c].Mean(), col.LatAcc[c].Max
	}
	var err error
	if o.summary, err = json.MarshalIndent(sum, "", "  "); err != nil {
		panic(err)
	}
	return o
}

// mustEqual fails the test at the first observable difference from the
// reference run. With the observer set attached it also compares what the
// observers saw and the whole checkpoint, their state included.
func (o *wakeObs) mustEqual(t testing.TB, ref *wakeObs) {
	t.Helper()
	if fmt.Sprint(o.cycles) != fmt.Sprint(ref.cycles) {
		t.Fatalf("digests taken at cycles %v, reference at %v", o.cycles, ref.cycles)
	}
	for i := range o.trail {
		if o.trail[i] != ref.trail[i] {
			t.Fatalf("machine state differs from the reference at cycle %d (digest %d of %d): a component woke late, or met input out of its time",
				o.cycles[i], i+1, len(o.trail))
		}
	}
	if !bytes.Equal(o.summary, ref.summary) {
		t.Fatalf("summary differs from the reference:\n--- run ---\n%s\n--- reference ---\n%s", o.summary, ref.summary)
	}
	for i := range o.deliveries {
		if fmt.Sprint(o.deliveries[i]) != fmt.Sprint(ref.deliveries[i]) {
			t.Fatalf("endpoint %d deliveries differ from the reference:\n%v\n%v", i, o.deliveries[i], ref.deliveries[i])
		}
		if o.perEP[i] != ref.perEP[i] {
			t.Fatalf("endpoint %d injected/delivered %v packets, reference %v", i, o.perEP[i], ref.perEP[i])
		}
	}
	if o.final != ref.final {
		t.Fatalf("final machine state differs from the reference")
	}
	if !o.full {
		return
	}
	if !ref.full {
		t.Fatal("the reference ran without the observer set: nothing to compare the observers with")
	}
	if o.sampler != ref.sampler {
		t.Fatalf("sampled series differ from the reference:\n--- run ---\n%s\n--- reference ---\n%s", o.sampler, ref.sampler)
	}
	if !bytes.Equal(o.watchdog.Bytes(), ref.watchdog.Bytes()) {
		t.Fatalf("watchdog output differs from the reference:\n--- run ---\n%s\n--- reference ---\n%s", o.watchdog.String(), ref.watchdog.String())
	}
	for i := range o.ckpts {
		if o.ckpts[i] != ref.ckpts[i] {
			at := "the end"
			if i < len(o.cycles) {
				at = "cycle " + strconv.FormatInt(o.cycles[i], 10)
			}
			t.Fatalf("checkpoint differs from the reference at %s: the observers' state", at)
		}
	}
}

// watch attaches the observer set, in the order a restore must repeat: the
// invariant checker, the metrics registry, the sampler and the watchdog
// (writing to out), at intervals that are no multiple of the 65- and
// 650-cycle lookaheads, so they fire inside epochs.
func watch(n *Network, out io.Writer) {
	n.Observe(NewInvariants(n, auditEvery(n)))
	n.EnableMetrics(metrics.NewRegistry())
	n.Observe(NewSampler(n, 97))
	n.Observe(NewWatchdog(n, 1000, out, nil))
}

// auditEvery is the invariant checker's interval in the observer set:
// every 64 cycles on tiny, every 1021 on small, where an audit walks every
// flit pool in a tenth of a second.
func auditEvery(n *Network) int64 {
	if n.Cfg.Topo == core.SmallConfig().Topo {
		return 1021
	}
	return 64
}

// The generators. A generator is defined by its per-cycle form; the ones
// of package traffic look ahead to their next arrival and let the endpoint
// sleep until then, and a checkpoint writes their stream as the per-cycle
// form would have left it. So the reference runs the per-cycle forms
// (perCycleGen), and every other run is held to what the generators drew
// before they looked ahead — in every checkpoint too — not to itself.
// genKinds: "uniform" starts at once, "delayed" at cycle genDelay (its
// endpoint is stepped every cycle until then), "permutation" sends all its
// traffic to one partner, "mixed" deals the three out round robin over the
// endpoints.
var genKinds = []string{"uniform", "delayed", "permutation", "mixed"}

const genDelay = 150

// perCycleGen is traffic.Uniform's (partner < 0) and traffic.Permutation's
// per-cycle form: the draw loop they ran before they looked ahead, one
// Bernoulli draw a cycle from start on and the destination's draws after
// each hit.
func perCycleGen(rng *sim.RNG, numEndpoints int, partner int32, load, rate float64, start sim.Tick) func(sim.Tick, *endpoint.Endpoint) sim.Tick {
	p := load * rate / float64(proto.MaxPacketFlits)
	return func(now sim.Tick, e *endpoint.Endpoint) sim.Tick {
		if now >= start && rng.Bernoulli(p) {
			dst := partner
			for dst < 0 || dst == e.ID {
				dst = int32(rng.Intn(numEndpoints))
			}
			e.EnqueueMessage(dst, proto.MaxPacketFlits, proto.ClassDefault, 0)
		}
		return now + 1
	}
}

// installGen gives endpoint i generator kind g at the given load, drawing
// from gen (which it also hands the endpoint as GenRNG): the traffic
// package's, or with perCycle its per-cycle form.
func installGen(n *Network, i int, g string, gen *sim.RNG, load float64, perCycle bool) {
	ep, rate, N := n.Endpoints[i], n.ChannelRate(), len(n.Endpoints)
	if g == "mixed" {
		g = genKinds[i%3]
	}
	var start sim.Tick
	partner := int32(-1)
	switch g {
	case "delayed":
		start = genDelay
	case "permutation":
		partner = int32((i + N/2) % N)
	}
	ep.GenRNG = gen
	switch {
	case perCycle:
		ep.Gen = perCycleGen(gen, N, partner, load, rate, start)
	case partner >= 0:
		ep.Gen = traffic.Permutation(gen, partner, load, rate, proto.MaxPacketFlits, proto.ClassDefault)
	default:
		ep.Gen = traffic.Uniform(gen, N, nil, load, rate, proto.MaxPacketFlits, proto.ClassDefault, start)
	}
}

// A regime is a way the network behaves: its configuration and its
// traffic, mixed generators at load, with hot every eleventh endpoint a
// hotspot aggressor on endpoint 0 or 1 instead.
type regime struct {
	name    string
	setup   func(cfg *core.Config)
	load    float64
	hot     bool
	starved bool // nothing is ever delivered: the script does not drain, and the reference's watchdog must fire
}

// regimes is the one regime list.
var regimes = []regime{
	{name: "e2e", load: 0.25, setup: func(cfg *core.Config) { cfg.Mode = core.StashE2E }},
	{name: "ecn", load: 0.4, hot: true, setup: func(cfg *core.Config) {
		cfg.Mode = core.StashCongestion
		cfg.ECN = core.DefaultECN()
	}},
	// faultsSetup's failures with parity groups of k=4: a failed bank's
	// copies are rebuilt.
	{name: "faults-parity", load: 0.25, setup: func(cfg *core.Config) {
		faultsSetup(cfg)
		cfg.StashParity = 4
	}},
	// The same without parity: a failed bank's copies are lost, and their
	// packets fall back to the source's timer.
	{name: "faults", load: 0.25, setup: faultsSetup},
	{name: "baseline", load: 0.25, setup: func(cfg *core.Config) { cfg.Mode = core.StashOff }},
	// A one-cycle global link: the lookahead, and so every epoch, is one cycle.
	{name: "global1", load: 0.25, setup: func(cfg *core.Config) {
		cfg.Mode = core.StashE2E
		cfg.Lat.Global = 1
	}},
	// Every link drops every flit.
	{name: "starved", load: 0.25, starved: true, setup: func(cfg *core.Config) {
		cfg.Mode = core.StashE2E
		cfg.Retrans = core.DefaultRetrans()
		cfg.RetainPayload = true
		cfg.Fault = &fault.Plan{Seed: 9, LinkDropRate: 1}
	}},
}

// faultsSetup is e2e stashing with drops, corruption and recovery timers,
// and bank failures in the middle of epochs on either preset, in the
// loaded, the sparse and the silent phase. Two fall on consecutive cycles,
// 1334 and 1335, so an epoch is cut to end at the very next cycle. A
// checkpoint at 1337 lands while they are being dealt with; one at 1737 is
// taken before that cycle's failure, which fires in the restored run.
func faultsSetup(cfg *core.Config) {
	cfg.Mode = core.StashE2E
	cfg.Retrans = core.DefaultRetrans()
	cfg.RetainPayload = true
	cfg.Fault = &fault.Plan{Seed: 9, LinkDropRate: 2e-3, CorruptRate: 1e-3,
		StashFailures: []fault.StashFail{
			{Switch: 0, Port: 0, At: 333}, {Switch: 1, Port: 1, At: 777}, {Switch: 2, Port: 0, At: 1334},
			{Switch: 5, Port: 1, At: 1335}, {Switch: 0, Port: 2, At: 1737}, {Switch: 3, Port: 1, At: 2750}}}
}

// regimeNamed returns the regime of that name.
func regimeNamed(name string) regime {
	for _, r := range regimes {
		if r.name == name {
			return r
		}
	}
	panic("no regime " + name)
}

// config is the regime on the preset ("tiny" or "small").
func (r regime) config(preset string) *core.Config {
	cfg := core.TinyConfig()
	if preset == "small" {
		cfg = core.SmallConfig()
	}
	r.setup(cfg)
	return cfg
}

// build returns a fresh network of the regime on the preset, without
// traffic.
func (r regime) build(t testing.TB, preset string) *Network {
	t.Helper()
	n, err := New(r.config(preset))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

// traffic installs the regime's generators on every endpoint, drawing from
// restorable streams: the per-cycle forms with perCycle.
func (r regime) traffic(n *Network, perCycle bool) {
	rng := sim.NewRNG(n.Cfg.Seed + 77)
	for i, ep := range n.Endpoints {
		gen := rng.Derive(uint64(ep.ID))
		if r.hot && i%11 == 3 {
			ep.GenRNG = gen
			ep.Gen = traffic.Hotspot(int32(i%2), proto.MaxPacketFlits, proto.ClassAggressor, 0)
			continue
		}
		installGen(n, i, "mixed", gen, r.load, perCycle)
	}
}

// loadedNet builds the regime on the preset with its generators installed
// and nothing attached.
func loadedNet(t testing.TB, preset, name string) *Network {
	t.Helper()
	r := regimeNamed(name)
	n := r.build(t, preset)
	r.traffic(n, false)
	return n
}

// handAt is the table's hand-off cycle: inside the sparse phase, not on an
// epoch boundary of either preset, with 600 cycles of the phase after it.
const handAt = 1337

// trail is where the table digests the machine state: inside epochs, at
// the hand-offs, and at the start of the sparse phase, where the removed
// generators' draws ahead are still on their streams.
var trail = []int64{417, 700, 1101, 1200, handAt, 1737, 2000, 2900}

// script is the regime's drive: a loaded phase, a sparse phase in which one
// endpoint in nine still generates, a silent phase with a few scripted
// messages, and a drain (none when starved).
func (r regime) script(d *drive) {
	d.gens(r.traffic)
	d.Warmup(400)
	d.Run(800)
	d.gens(func(n *Network, _ bool) {
		for i, ep := range n.Endpoints {
			if i%9 != 0 || r.hot && i%11 == 3 {
				ep.Gen = nil
			}
		}
	})
	d.Run(1300)
	d.gens(stopGens)
	d.RunUntil(1000, 100, func() bool {
		n := d.n
		k := int(n.Now/100) % len(n.Endpoints)
		n.Endpoints[k].EnqueueMessage(int32((k+len(n.Endpoints)/2)%len(n.Endpoints)), 2*proto.MaxPacketFlits, proto.ClassDefault, uint32(k))
		return false
	})
	if !r.starved {
		d.Drain(400000)
	}
}

// stopGens removes every endpoint's generator.
func stopGens(n *Network, _ bool) {
	for _, ep := range n.Endpoints {
		ep.Gen = nil
	}
}

// handoff is what a row does at its hand-off cycle.
type handoff int

const (
	noHandoff  handoff = iota
	setWorkers         // SetWorkers to the opposite count
	closeNet           // Close, after which a Run spawns no goroutine
	steps              // 600 Step calls
	restore            // checkpoint, and restore onto the opposite worker count and cap
)

var handoffNames = [...]string{"", "setworkers", "close", "steps", "restore"}

// A row is one way to run a regime's script.
type row struct {
	ref     bool    // the reference: one Run(1) per cycle, per-cycle generators
	workers int     // SetWorkers before the script
	cap     int64   // epochs held to at most cap cycles by every{cap}; 0: free
	chunk   int64   // Run calls of at most chunk cycles; 0: as the script asks
	hand    handoff // at cycle at
	at      int64
	obs     bool // the observer set attached
}

func (r row) String() string {
	s := "w" + strconv.Itoa(r.workers)
	if r.cap > 0 {
		s += "/every" + strconv.FormatInt(r.cap, 10)
	}
	if r.chunk > 0 {
		s += "/chunk" + strconv.FormatInt(r.chunk, 10)
	}
	if r.hand != noHandoff {
		s += "/" + handoffNames[r.hand] + "@" + strconv.FormatInt(r.at, 10)
	}
	if r.obs {
		s += "/obs"
	}
	return s
}

// opposite is the worker count and cap a hand-off moves a row to.
func opposite(workers int, cap int64) (int, int64) {
	w, c := 4, int64(0)
	if workers > 1 {
		w = 1
	}
	if cap == 0 {
		c = 1
	}
	return w, c
}

// drive is a row under way: the network it is on (a restore hand-off
// replaces it) and the generator changes so far, which a restored network
// is given again before its state is loaded.
type drive struct {
	t       testing.TB
	build   func() *Network
	row     row
	o       *wakeObs
	n       *Network
	cap     int64 // the cap in force on n
	history []func(n *Network, perCycle bool)
	handed  bool
}

// play drives script through a network from build, run as r says, digesting
// the machine state before each cycle of at, and returns what the run let
// an observer see. It checks that the row ran as labelled: its blocks and
// lookahead, its epochs within its cap, its hand-off made, and the
// reference one cycle per epoch with every scheduled bank failure come.
func play(t testing.TB, build func() *Network, r row, at []int64, script func(d *drive)) *wakeObs {
	t.Helper()
	d := &drive{t: t, build: build, row: r, o: &wakeObs{at: at, full: r.obs}}
	d.n = d.start(r.workers, r.cap, nil)
	script(d)
	if r.hand != noHandoff && !d.handed {
		t.Fatalf("%s: the run never reached its hand-off at cycle %d", r, r.at)
	}
	d.mustKeepCap()
	if st := d.n.ExecStats(); r.ref && st.CyclesPerSync != 1 {
		t.Fatalf("the reference ran %.2f cycles per epoch, want 1", st.CyclesPerSync)
	}
	if _, pending := d.n.Injector.NextStashFailAt(int64(d.n.Now)); r.ref && pending {
		t.Fatal("the reference run ended with a scheduled stash-bank failure still to come")
	}
	d.o.finish(d.n)
	d.n.Close()
	return d.o
}

// start builds the row's network on the given workers and cap: the
// observer set if the row has it, the generators as the script has left
// them, the observation, then the state of snap if there is one.
func (d *drive) start(workers int, cap int64, snap []byte) *Network {
	n := d.build()
	if d.row.obs {
		watch(n, &d.o.watchdog)
	}
	for _, g := range d.history {
		g(n, d.row.ref)
	}
	d.o.attach(n)
	if snap != nil {
		if err := n.Restore(snap); err != nil {
			d.t.Fatalf("Restore: %v", err)
		}
	}
	n.SetWorkers(workers)
	mustCut(d.t, n, workers)
	if d.cap = cap; cap > 0 {
		n.Observe(every{k: cap})
	}
	return n
}

// mustCut fails unless n is cut as the worker count says: a block per
// dragonfly group and the global latency as lookahead up to the group
// count, a block per worker and the local latency past it.
func mustCut(t testing.TB, n *Network, workers int) {
	t.Helper()
	blocks, la := n.Cfg.Topo.Groups(), n.Cfg.Lat.Global
	workers = max(1, min(workers, blocks))
	if st := n.ExecStats(); st.Blocks != blocks || st.Workers != workers || n.EpochLookahead() != la {
		t.Fatalf("%d workers: %d blocks on %d workers at lookahead %d, want %d blocks at %d",
			workers, st.Blocks, st.Workers, n.EpochLookahead(), blocks, la)
	}
}

// mustKeepCap fails unless the network's epochs so far averaged at most
// the cap in force.
func (d *drive) mustKeepCap() {
	if st := d.n.ExecStats(); d.cap > 0 && (st.Epochs == 0 || st.CyclesPerSync > float64(d.cap)) {
		d.t.Fatalf("%d epochs at %.2f cycles/sync, want at most %d", st.Epochs, st.CyclesPerSync, d.cap)
	}
}

// gens applies a change of generators to the network and keeps it for a
// restored one.
func (d *drive) gens(change func(n *Network, perCycle bool)) {
	change(d.n, d.row.ref)
	d.history = append(d.history, change)
}

// Run advances the row's network in public Run calls cut by its chunking,
// and makes the hand-off when the clock stands at its cycle.
func (d *drive) Run(cycles int64) {
	if d.row.ref {
		reference{d.n}.Run(cycles)
		return
	}
	for end := int64(d.n.Now) + cycles; int64(d.n.Now) < end; {
		now := int64(d.n.Now)
		pending := d.row.hand != noHandoff && !d.handed
		if pending && now == d.row.at {
			d.handOff(end)
			continue
		}
		step := end - now
		if d.row.chunk > 0 {
			step = min(step, d.row.chunk)
		}
		if pending && now < d.row.at {
			step = min(step, d.row.at-now)
		}
		d.n.Run(step)
	}
}

// entries are the run entries other than Run: the reference's, or the
// network's own.
func (d *drive) entries() runner {
	if d.row.ref {
		return reference{d.n}
	}
	return d.n
}

func (d *drive) RunUntil(budget, checkEvery int64, done func() bool) bool {
	return d.entries().RunUntil(budget, checkEvery, done)
}

func (d *drive) Warmup(cycles int64) { d.entries().Warmup(cycles) }

func (d *drive) Drain(budget int64) bool { return d.entries().Drain(budget) }

// handOff makes the row's hand-off inside a Run that ends at end.
func (d *drive) handOff(end int64) {
	d.handed = true
	d.mustKeepCap()
	n := d.n
	workers, cap := opposite(d.row.workers, d.cap)
	switch d.row.hand {
	case setWorkers:
		n.SetWorkers(workers)
		mustCut(d.t, n, workers)
	case closeNet:
		n.Close() // waits for the workers
		base := runtime.NumGoroutine()
		n.Run(1) // must run inline on this goroutine
		if g := runtime.NumGoroutine(); g > base {
			d.t.Fatalf("Run after Close spawned goroutines: %d -> %d", base, g)
		}
	case steps:
		if int64(n.Now)+600 > end {
			d.t.Fatalf("600 steps from cycle %d overrun the script's Run, which ends at %d", n.Now, end)
		}
		for range 600 {
			n.Step()
		}
	case restore:
		snap := n.Checkpoint(n.Now)
		n.Close()
		d.n = d.start(workers, cap, snap)
		if d.n.Now != n.Now {
			d.t.Fatalf("restored clock at %d, want %d", d.n.Now, n.Now)
		}
		// Audit the restored machine at once. The checker is not one of
		// the observers: their state is in the checkpoints the row is held
		// to, and an extra audit would change their count.
		NewInvariants(d.n, 1).AtBarrier(int64(d.n.Now) - 1)
	}
}

// references holds the reference run of each preset/regime, computed by
// the first row that needs it.
var references sync.Map

type refRun struct {
	once sync.Once
	o    *wakeObs
}

// referenceOf returns the reference run of the regime on the preset, with
// the observer set attached; a starved network's watchdog must have fired.
func referenceOf(t testing.TB, preset string, reg regime) *wakeObs {
	t.Helper()
	v, _ := references.LoadOrStore(preset+"/"+reg.name, &refRun{})
	r := v.(*refRun)
	r.once.Do(func() {
		o := play(t, func() *Network { return reg.build(t, preset) }, row{ref: true, obs: true}, trail, reg.script)
		if reg.starved && o.watchdog.Len() == 0 {
			t.Fatal("the starved network's watchdog never fired: the regime is vacuous")
		}
		r.o = o
	})
	if r.o == nil {
		t.Fatalf("the %s/%s reference run failed (see the row that ran it)", preset, reg.name)
	}
	return r.o
}

// check runs one row of the named regime on the preset and holds it to the
// reference.
func check(t *testing.T, preset, name string, r row) {
	t.Helper()
	reg := regimeNamed(name)
	want := referenceOf(t, preset, reg)
	play(t, func() *Network { return reg.build(t, preset) }, r, trail, reg.script).mustEqual(t, want)
}

// checkRows runs each row as a parallel subtest named after it.
func checkRows(t *testing.T, preset, name string, rows ...row) {
	for _, r := range rows {
		t.Run(r.String(), func(t *testing.T) {
			t.Parallel()
			check(t, preset, name, r)
		})
	}
}

// presets are the presets of the grids: tiny alone under -short.
func presets() []string {
	if testing.Short() {
		return []string{"tiny"}
	}
	return []string{"tiny", "small"}
}

// TestSpuriousWakeIsNoop: sleeping is invisible. Presets x {e2e, congestion
// + ECN + hotspots, faults + parity k=4} x workers {1, 2, 12} x epochs
// {free-running, held to one cycle}.
func TestSpuriousWakeIsNoop(t *testing.T) {
	for _, preset := range presets() {
		for _, name := range []string{"e2e", "ecn", "faults-parity"} {
			t.Run(preset+"/"+name, func(t *testing.T) {
				t.Parallel()
				var rows []row
				for _, w := range []int{1, 2, 12} {
					for _, cap := range []int64{0, 1} {
						if testing.Short() && cap == 1 && w != 2 {
							continue
						}
						rows = append(rows, row{workers: w, cap: cap})
					}
				}
				checkRows(t, preset, name, rows...)
			})
		}
	}
}

// TestBlockedMatchesOneBlock: stepping block by block is invisible. Presets
// x {faults + parity, congestion + ECN + hotspots, baseline} x workers
// {1, 2, 4} x Run chunkings {1, 7, 64, 650, 1000}, each public Run ending
// an epoch, so the chunking moves where the blocks take turns. One worker
// is the case only this grid covers — with several, blocks of different
// workers never shared a loop in the first place.
func TestBlockedMatchesOneBlock(t *testing.T) {
	workerCounts, chunks := []int{1, 2, 4}, []int64{1, 7, 64, 650, 1000}
	if testing.Short() {
		workerCounts, chunks = workerCounts[:2], []int64{7, 1000}
	}
	for _, preset := range presets() {
		for _, name := range []string{"faults-parity", "ecn", "baseline"} {
			t.Run(preset+"/"+name, func(t *testing.T) {
				t.Parallel()
				var rows []row
				for _, w := range workerCounts {
					for _, chunk := range chunks {
						rows = append(rows, row{workers: w, chunk: chunk})
					}
				}
				checkRows(t, preset, name, rows...)
			})
		}
	}
}

// TestResumeEquality: a checkpoint restored onto the opposite worker count
// and cap continues as the reference does, observers included — the
// checkpoint lands mid-epoch; with "faults" (no parity) on a stash-bank
// failure still due (it fires in the restored run), with "parity" two and
// three cycles into rebuilds. Snapshots are partition-canonical.
func TestResumeEquality(t *testing.T) {
	type point struct {
		preset  string
		workers int
		cap     int64 // 1 = "off": a barrier every cycle; 0 = "auto"
	}
	points := []point{{"tiny", 1, 1}, {"tiny", 4, 1}, {"tiny", 1, 0}, {"tiny", 4, 0}, {"tiny", 12, 0}}
	if !testing.Short() {
		points = append(points, point{"small", 4, 0}, point{"small", 1, 1})
	}
	for _, pt := range points {
		for _, sc := range []struct {
			name, regime string
			at           int64
		}{{"faults", "faults", 1737}, {"parity", "faults-parity", handAt}, {"ecn", "ecn", handAt}} {
			epochs := "auto"
			if pt.cap == 1 {
				epochs = "off"
			}
			t.Run(fmt.Sprintf("%s/%s/w%d/%s", pt.preset, sc.name, pt.workers, epochs), func(t *testing.T) {
				t.Parallel()
				check(t, pt.preset, sc.regime, row{workers: pt.workers, cap: pt.cap, hand: restore, at: sc.at, obs: true})
			})
		}
	}
}

// TestRestoreReschedulesSerialSingletons: a checkpoint taken before a
// scheduled stash-bank failure and restored — the sampler's intervals, the
// invariant auditor's count, the watchdog's window clock and the failure
// all land on the same absolute cycles as in the reference.
func TestRestoreReschedulesSerialSingletons(t *testing.T) {
	check(t, "tiny", "faults", row{workers: 2, cap: 7, hand: restore, at: 1737, obs: true})
}

// TestEpochMatchesSerial: free-running epochs for group-aligned worker
// counts (only global links cross: lookahead 65 on tiny), for more workers
// than tiny's 9 groups (switch blocks, local links cross too: lookahead
// 13), and held to one cycle.
func TestEpochMatchesSerial(t *testing.T) {
	checkRows(t, "tiny", "faults-parity", row{workers: 2}, row{workers: 3}, row{workers: 9}, row{workers: 12}, row{workers: 4, cap: 1})
}

// TestEpochPolicyOffMatches: the per-cycle barrier as a degenerate epoch
// schedule, on four workers.
func TestEpochPolicyOffMatches(t *testing.T) {
	check(t, "tiny", "e2e", row{workers: 4, cap: 1})
}

// TestEpochPolicyCap: epochs held below the lookahead by an observer
// naming every seventh cycle.
func TestEpochPolicyCap(t *testing.T) {
	check(t, "tiny", "e2e", row{workers: 4, cap: 7})
}

// TestEpochGlobalLatencyOneDegrades: a one-cycle global link makes the
// lookahead one cycle, and the same loop a barrier every cycle.
func TestEpochGlobalLatencyOneDegrades(t *testing.T) {
	check(t, "tiny", "global1", row{workers: 4})
}

// TestEpochMidEpochFaultExact: stash-bank failures scheduled off the
// epoch grid land on their exact cycles, also on consecutive ones; the
// epoch is cut before each. Without parity the failed banks' copies are
// lost, and the source's timer resends them.
func TestEpochMidEpochFaultExact(t *testing.T) {
	check(t, "tiny", "faults", row{workers: 4})
}

// TestEpochObserversExact: interval observers fire on their exact cycles
// from a quiescent barrier, not at epoch granularity.
func TestEpochObserversExact(t *testing.T) {
	check(t, "tiny", "faults-parity", row{workers: 4, obs: true})
}

// TestEpochWatchdogStallExact: in a starved network the watchdog fires,
// and its dumps — which embed the stall cycles — are the reference's.
func TestEpochWatchdogStallExact(t *testing.T) {
	check(t, "tiny", "starved", row{workers: 4, obs: true})
}

// TestParallelMatchesSerial: four workers, free-running.
func TestParallelMatchesSerial(t *testing.T) {
	check(t, "tiny", "e2e", row{workers: 4})
}

// TestCloseFallsBackToSerial: Close promises inline execution — it used to
// keep the worker count, so the next Run quietly re-spawned a pool — and
// its repartition hands the traffic staged on crossing links to the single
// block loop exactly.
func TestCloseFallsBackToSerial(t *testing.T) {
	check(t, "tiny", "faults-parity", row{workers: 4, hand: closeNet, at: handAt})
}

// TestSetWorkersMidRunExact: the reverse hand-off, one worker to four; the
// repartition re-arms traffic already riding the links.
func TestSetWorkersMidRunExact(t *testing.T) {
	check(t, "tiny", "faults-parity", row{workers: 1, hand: setWorkers, at: handAt})
}

// TestStepAfterParallelRunExact: Step on a network whose workers are live
// used to walk every component while crossing links were still in epoch
// delivery, so nothing drained their slabs. Step is Run(1), the pattern
// trace.Replay drives.
func TestStepAfterParallelRunExact(t *testing.T) {
	check(t, "tiny", "faults-parity", row{workers: 4, hand: steps, at: handAt})
}

// TestEpochWorkersExceedGroups: a worker count past the group count is
// clamped to one group per worker, so that no group's pools are shared
// between workers.
func TestEpochWorkersExceedGroups(t *testing.T) {
	n := quietNet(t, nil)
	defer n.Close()
	n.SetWorkers(1000)
	if got, want := n.workers, n.Cfg.Topo.Groups(); got != want {
		t.Fatalf("SetWorkers(1000) kept %d workers, want the group count %d", got, want)
	}
	mustCut(t, n, 1000)
}

// FuzzWakeEquivalence searches for a configuration in which sleeping,
// block-by-block stepping or a hand-off shows: generated small dragonflies
// x load x generator kind x fault plan x parity x worker count x the way
// the run is chunked into public Run calls (each of which starts all awake
// and ends an epoch, so chunking moves where components fall asleep and
// where blocks take turns) x the table's hand-offs, made where the
// generators are removed, with a digest right there. The reference is the
// same network advanced one Run(1) per cycle, running the generators'
// per-cycle forms.
func FuzzWakeEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(1), uint8(0), uint8(0), false, uint16(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(1), uint8(0), uint8(1), uint8(7), true, uint16(37), uint8(1), uint8(4))
	f.Add(uint64(3), uint8(2), uint8(2), uint8(2), uint8(3), true, uint16(1), uint8(2), uint8(1))
	f.Add(uint64(4), uint8(3), uint8(1), uint8(3), uint8(4), false, uint16(500), uint8(0), uint8(2))
	f.Add(uint64(5), uint8(2), uint8(0), uint8(0), uint8(5), true, uint16(64), uint8(1), uint8(3))
	topos := []topo.Dragonfly{{P: 1, A: 2, H: 1}, {P: 2, A: 2, H: 1}, {P: 2, A: 4, H: 2}, {P: 3, A: 3, H: 1}}
	loads := []float64{0.03, 0.15, 0.45}
	f.Fuzz(func(t *testing.T, seed uint64, topoSel, loadSel, genSel, faults uint8, parity bool, chunk uint16, workers, hand uint8) {
		d := topos[int(topoSel)%len(topos)]
		build := func() *Network {
			cfg := core.TinyConfig()
			cfg.Topo = d
			half := (d.Radix() + 1) / 2
			cfg.Rows, cfg.Cols, cfg.TileIn, cfg.TileOut = 2, 2, half, half
			cfg.Mode = core.StashE2E
			cfg.Seed = seed
			plan := &fault.Plan{Seed: seed + 5}
			if faults&1 != 0 {
				plan.LinkDropRate = 4e-3
			}
			if faults&2 != 0 {
				plan.CorruptRate = 2e-3
			}
			if faults&4 != 0 {
				for i := int64(0); i < 3; i++ {
					plan.StashFailures = append(plan.StashFailures, fault.StashFail{
						Switch: int(i) % d.NumSwitches(), Port: int(i) % d.P, At: 300 + 450*i + int64(seed%97)})
				}
			}
			if plan.Active() {
				cfg.Fault = plan
				cfg.Retrans = core.DefaultRetrans()
				cfg.Retrans.SwitchTimeout, cfg.Retrans.EndpointTimeout = 700, 6000
				cfg.RetainPayload = true
			}
			if k := min(4, d.P+d.A-2); parity && k >= 2 {
				cfg.StashParity = k
			}
			n, err := New(cfg)
			if err != nil {
				t.Skipf("config rejected: %v", err)
			}
			return n
		}
		const removed = 1000
		script := func(dr *drive) {
			rng := sim.NewRNG(seed + 77)
			dr.gens(func(n *Network, perCycle bool) {
				for i, ep := range n.Endpoints {
					installGen(n, i, genKinds[int(genSel)%len(genKinds)], rng.Derive(uint64(ep.ID)),
						loads[int(loadSel)%len(loads)], perCycle)
				}
			})
			dr.Run(removed)
			dr.gens(stopGens)
			dr.Run(1200)
			dr.Drain(200000)
		}
		at := []int64{450, removed, 1250, 1900}
		want := play(t, build, row{ref: true}, at, script)
		r := row{workers: 1 + int(workers)%3, chunk: int64(chunk), hand: handoff(int(hand) % len(handoffNames)), at: removed}
		play(t, build, r, at, script).mustEqual(t, want)
	})
}
