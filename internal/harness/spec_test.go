package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stashsim/internal/core"
	"stashsim/internal/fault"
	"stashsim/internal/sim"
)

// summaryJSON runs a spec start to finish — Build, Warm, Run — and renders
// the summary as stashsim -json would.
func summaryJSON(t *testing.T, sp Spec) ([]byte, error) {
	t.Helper()
	n, err := sp.Build()
	if err != nil {
		return nil, err
	}
	defer n.Close()
	if err := sp.Warm(n); err != nil {
		return nil, err
	}
	s, err := sp.Run(n)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(s, "", "  ")
}

// noFiles fails the test if anything was written under prefix.
func noFiles(t *testing.T, prefix string) {
	t.Helper()
	if left, _ := filepath.Glob(prefix + "*"); len(left) > 0 {
		t.Errorf("refused checkpoint still wrote %v", left)
	}
}

// TestWarmResumes drives the one Warm the CLIs and the sweeps share: a run
// that writes a checkpoint and a run that resumes from it both end in the
// bytes of the run that did neither — the -json of a spec, the tables of
// the fig5 and faults sweeps — and a checkpoint cycle the run never reaches the
// barrier of is an error that writes nothing (accepted, it would write the
// restored snapshot back out under the new name).
func TestWarmResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	dir := t.TempDir()

	t.Run("spec", func(t *testing.T) {
		// Drops in flight, parity groups, a bank failure and a drain: the
		// state a resumed run must pick up exactly.
		base := Spec{
			Preset: "tiny", Mode: "e2e", CapFrac: 1.0, Load: 0.3, MsgPkts: 1,
			Warmup: 400, Cycles: 600, Seed: 5, Invariants: 64,
			Fault: &fault.Plan{Seed: 3, LinkDropRate: 4e-3, StashFailures: []fault.StashFail{{Switch: 0, Port: 0, At: 700}}}, StashParity: 4,
			Drain: 400000, AssertDelivery: true,
		}
		want, err := summaryJSON(t, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []int64{200, 500} { // mid-warm-up, mid-measure
			snap := filepath.Join(dir, fmt.Sprintf("at%d.snap", at))
			writer, resumed := base, base
			writer.CheckpointPath, writer.CheckpointAt = snap, at
			resumed.RestorePath = snap
			for i, sp := range []Spec{writer, resumed} {
				if got, err := summaryJSON(t, sp); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("checkpoint at %d, run %d (0 writes, 1 resumes; err %v):\n--- got ---\n%s\n--- straight ---\n%s", at, i, err, got, want)
				}
			}
		}
		// Resumed at 500: cycles 200 and 500 are behind the run, 1000 is its end.
		for _, at := range []int64{200, 500, 1000, 5000} {
			stale := base
			stale.RestorePath = filepath.Join(dir, "at500.snap")
			stale.CheckpointPath, stale.CheckpointAt = filepath.Join(dir, "stale.snap"), at
			_, err := summaryJSON(t, stale)
			if err == nil || !strings.Contains(err.Error(), "starts at cycle 500 and ends at cycle 1000") {
				t.Errorf("restored at 500, checkpoint at %d: err = %v, want one naming both cycles", at, err)
			}
			noFiles(t, stale.CheckpointPath)
		}
		// Without a restore, cycle 0 is a checkpoint like any other.
		first := base
		first.CheckpointPath = filepath.Join(dir, "first.snap")
		if got, err := summaryJSON(t, first); err != nil || !bytes.Equal(got, want) {
			t.Errorf("checkpoint at cycle 0: err %v, same bytes %v", err, bytes.Equal(got, want))
		}
	})

	// The sweeps run every point through the same Warm and Run. Under Quick
	// on tiny, Faults warms for 1000 cycles and Fig5 for 2000 of its 7000:
	// cycle 900 is a warm-up checkpoint, cycle 3000 one in the measured window.
	for name, ats := range map[string][]int64{"fig5": {900, 3000}, "faults": {900}} {
		t.Run(name, func(t *testing.T) {
			csvs := func(outs []Output) (all string) {
				for _, out := range outs {
					all += out.Table.CSV()
				}
				return all
			}
			// run gives the sweep's CSVs, or what it failed with.
			run := func(set func(*Spec)) string {
				o := tinyOpts()
				set(&o.Base)
				outs, err := experiment(t, name).Run(o)
				if err != nil {
					return err.Error()
				}
				return csvs(outs)
			}
			want := csvs(tinyRun(t, name))
			for _, at := range ats {
				warm := filepath.Join(dir, fmt.Sprintf("%s-warm%d", name, at))
				if got := run(func(b *Spec) { b.CheckpointPath, b.CheckpointAt = warm, at }); got != want {
					t.Fatalf("sweep checkpointing at %d:\n%s\nstraight:\n%s", at, got, want)
				}
				if snaps, _ := filepath.Glob(warm + "." + name + ".*"); len(snaps) < 6 {
					t.Fatalf("one snapshot per design point expected, found %v", snaps)
				}
				if got := run(func(b *Spec) { b.RestorePath = warm }); got != want {
					t.Fatalf("sweep resumed at %d:\n%s\nstraight:\n%s", at, got, want)
				}
			}
			// figures -restore P -checkpoint Q@c with c not past P's cycle.
			at := ats[0]
			warm := filepath.Join(dir, fmt.Sprintf("%s-warm%d", name, at))
			for _, stale := range []int64{200, at} {
				again := filepath.Join(dir, name+"-again")
				got := run(func(b *Spec) { b.RestorePath, b.CheckpointPath, b.CheckpointAt = warm, again, stale })
				if !strings.Contains(got, fmt.Sprintf("starts at cycle %d", at)) {
					t.Errorf("restored at %d, checkpoint at %d: got %q, want an error naming both cycles", at, stale, got)
				}
				noFiles(t, again)
			}
			// A cycle past the window is refused too, as it always was.
			late := filepath.Join(dir, name+"-late")
			if got := run(func(b *Spec) { b.CheckpointPath, b.CheckpointAt = late, 1<<40 }); !strings.Contains(got, "is outside this run") {
				t.Errorf("checkpoint cycle past the window: got %q", got)
			}
			noFiles(t, late)
		})
	}
}

// TestAssertDeliveryIsCheckedUpFront: asking for the exactly-once check
// without the drain that makes it meaningful, or without anything that can
// lose a packet, is refused by Config — before a network is built — not
// after the whole run.
func TestAssertDeliveryIsCheckedUpFront(t *testing.T) {
	base := Spec{Preset: "tiny", Mode: "e2e", CapFrac: 1.0, Load: 0.3, MsgPkts: 1, Cycles: 100, AssertDelivery: true}
	drops := &fault.Plan{LinkDropRate: 1e-3}
	for _, c := range []struct {
		name string
		set  func(*Spec)
		want string // "" = accepted
	}{
		{"no drain", func(sp *Spec) { sp.Fault = drops }, "requires a drain window"},
		{"neither plan nor bypass", func(sp *Spec) { sp.Drain = 1000 }, "requires a fault plan or -stash-bypass"},
		{"NACKs alone", func(sp *Spec) { sp.Drain, sp.ErrRate = 1000, 0.01 }, "requires a fault plan or -stash-bypass"},
		{"drops", func(sp *Spec) { sp.Drain, sp.Fault = 1000, drops }, ""},
		{"bypass", func(sp *Spec) { sp.Drain, sp.StashBypass = 1000, true }, ""},
	} {
		sp := base
		c.set(&sp)
		_, err := sp.Config()
		if (c.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestTimersFollowThePlan pins the one rule for the recovery timers, which
// stashsim and every figure share: any active fault plan, in any mode, or
// -stash-bypass arms them, and nothing else does. It replaced two: stashsim
// armed them only for drops in e2e mode or under -retrans, so a
// corruption-only e2e plan ran without them and drops in baseline or
// congestion mode were never recovered.
func TestTimersFollowThePlan(t *testing.T) {
	drops := &fault.Plan{LinkDropRate: 1e-3}
	for _, c := range []struct {
		name   string
		set    func(*Spec)
		timers bool
	}{
		{"no plan", func(*Spec) {}, false},
		{"no plan, NACKs", func(sp *Spec) { sp.ErrRate = 0.01 }, false},
		{"no plan, parity", func(sp *Spec) { sp.StashParity = 4 }, false},
		{"corruption only, e2e", func(sp *Spec) { sp.Fault = &fault.Plan{CorruptRate: 1e-3} }, true},
		{"drops, e2e", func(sp *Spec) { sp.Fault = drops }, true},
		{"drops, baseline", func(sp *Spec) { sp.Mode, sp.Fault = "baseline", drops }, true},
		{"drops, congestion", func(sp *Spec) { sp.Mode, sp.Fault = "congestion", drops }, true},
		{"bank failure, baseline", func(sp *Spec) {
			sp.Mode, sp.Fault = "baseline", &fault.Plan{StashFailures: []fault.StashFail{{At: 50}}}
		}, true},
		{"bypass alone", func(sp *Spec) { sp.StashBypass = true }, true},
	} {
		sp := Spec{Preset: "tiny", Mode: "e2e", CapFrac: 1.0, Load: 0.3, MsgPkts: 1, Cycles: 100}
		c.set(&sp)
		cfg, err := sp.Config()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cfg.Retrans.Enabled != c.timers || c.timers && cfg.Mode == core.StashE2E && !cfg.RetainPayload {
			t.Errorf("%s: timers %v (retain payload %v), want %v", c.name, cfg.Retrans.Enabled, cfg.RetainPayload, c.timers)
		}
	}
}

// TestConfigRefuses: Config is the front door. A load, message size or
// window that cannot mean anything is refused there, with the offending
// value named, before a network exists to run it — a zero-packet message
// would otherwise panic in a worker goroutine, and a negative load or
// window would simulate an empty network and exit 0.
func TestConfigRefuses(t *testing.T) {
	base := Spec{Preset: "tiny", Mode: "e2e", CapFrac: 1.0, Load: 0.3, MsgPkts: 1, Cycles: 100, Warmup: 10}
	for _, c := range []struct {
		name string
		set  func(*Spec)
		want string // "" = accepted
	}{
		{"as is", func(*Spec) {}, ""},
		{"burst 0", func(sp *Spec) { sp.MsgPkts = 0 }, "burst 0"},
		{"burst -3", func(sp *Spec) { sp.MsgPkts = -3 }, "burst -3"},
		{"load -0.1", func(sp *Spec) { sp.Load = -0.1 }, "load -0.1"},
		{"load NaN", func(sp *Spec) { sp.Load = math.NaN() }, "load NaN"},
		{"cycles -1", func(sp *Spec) { sp.Cycles = -1 }, "cycles -1"},
		{"warmup -1", func(sp *Spec) { sp.Warmup = -1 }, "warmup -1"},
		{"drain -1", func(sp *Spec) { sp.Drain = -1 }, "drain -1"},
		// What used to get past the door: a worker goroutine panicking in
		// route.randomMidGroup or core.NewSwitch, a run that stashes NaN%
		// and delivers nothing, a run whose every packet is NACKed forever.
		{"two groups", func(sp *Spec) { sp.P, sp.A, sp.H = 1, 1, 1 }, "third group, {P:1 A:1 H:1} has 2"},
		{"radix 69", func(sp *Spec) { sp.P, sp.A, sp.H = 30, 30, 10 }, "radix 69"},
		{"cap NaN", func(sp *Spec) { sp.CapFrac = math.NaN() }, "capacity fraction NaN"},
		{"cap +Inf", func(sp *Spec) { sp.CapFrac = math.Inf(1) }, "capacity fraction +Inf"},
		{"cap 0", func(sp *Spec) { sp.CapFrac = 0 }, "capacity fraction 0"},
		{"errors 2", func(sp *Spec) { sp.ErrRate = 2 }, "error rate 2"},
		{"errors 1", func(sp *Spec) { sp.ErrRate = 1 }, ""},
		{"errors -0.5", func(sp *Spec) { sp.ErrRate = -0.5 }, "error rate -0.5"},
		{"errors NaN", func(sp *Spec) { sp.ErrRate = math.NaN() }, "error rate NaN"},
		{"three groups", func(sp *Spec) { sp.P, sp.A, sp.H = 1, 1, 2 }, ""},
		// No generators of the spec's own: what fig7, fig9 and the figures
		// CLI's probe build on, whatever the message size says.
		{"load 0", func(sp *Spec) { sp.Load, sp.MsgPkts = 0, 0 }, ""},
		{"nothing to run", func(sp *Spec) { sp.Cycles, sp.Warmup = 0, 0 }, ""},
	} {
		sp := base
		c.set(&sp)
		_, err := sp.Config()
		if (c.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
		if n, berr := sp.Build(); (berr == nil) != (err == nil) {
			t.Errorf("%s: Build err = %v, Config err = %v", c.name, berr, err)
		} else if n != nil {
			n.Close()
		}
	}
}

// TestPointDerivation pins the rules a sweep's design point adds to the
// base spec — parity reaches only e2e networks, and snapshot files are
// named by experiment and index — and that its plan arms the recovery
// timers in every mode, by Config's rule alone.
func TestPointDerivation(t *testing.T) {
	o := &Options{Base: Spec{Preset: "tiny", Seed: 3, Fault: &fault.Plan{StashFailures: []fault.StashFail{{At: 100}}}, StashParity: 4,
		CheckpointPath: "w", CheckpointAt: 9, RestorePath: "r"}}
	for _, v := range congVariants {
		sp := o.point("fig9", 7, v)
		cfg, err := sp.Config()
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if !cfg.Retrans.Enabled || cfg.StashParity != 0 || !cfg.ECN.Enabled || cfg.Seed != 3 {
			t.Errorf("%s: retrans %v parity %d ecn %v seed %d", v.name, cfg.Retrans.Enabled, cfg.StashParity, cfg.ECN.Enabled, cfg.Seed)
		}
		if sp.CheckpointPath != "w.fig9.007" || sp.CheckpointAt != 9 || sp.RestorePath != "r.fig9.007" {
			t.Errorf("%s: snapshot files %q %q", v.name, sp.CheckpointPath, sp.RestorePath)
		}
	}
	e2e := o.point("fig5", 0, e2eVariants[2])
	if cfg, err := e2e.Config(); err != nil || cfg.StashParity != 4 || !cfg.RetainPayload || cfg.StashCapFrac != 0.5 {
		t.Errorf("e2e point: %+v, err %v", cfg, err)
	}
	plain := (&Options{Base: Spec{Preset: "tiny"}}).point("fig5", 0, e2eVariants[1])
	if cfg, err := plain.Config(); err != nil || cfg.Retrans.Enabled || cfg.Fault != nil {
		t.Errorf("fault-free point: %+v, err %v", cfg, err)
	}
	if _, err := os.Stat("w.fig9.007"); err == nil {
		t.Error("deriving a point wrote a file")
	}
}

// FuzzSpecConfig searches run descriptions, not bytes: the fuzzer's
// arguments are Spec fields, held to sizes that build in well under a second
// (a custom dragonfly of at most 4/4/4, or the tiny preset when p, a or h is
// zero). Config is the front door: whatever it lets through must run 64
// audited cycles without a panic — anything that cannot has to be refused
// there, as an error. network.New, which validates the same configuration,
// adds only the refusals that take the wired topology: a plan naming a link
// or a stash bank this network does not have.
func FuzzSpecConfig(f *testing.F) {
	type seed struct {
		p, a, h          uint8
		mode             string
		capFrac, load    float64
		burst, hotspots  int
		parity           int
		errs, drop       float64
		corrupt          float64
		outage           string // the one outage's link; "" = none
		outStart, outEnd int64
		failSw, failPort int
		failAt           int64 // the one bank failure's cycle; 0 = none
		bypass           bool
		workers          int
	}
	for _, s := range []seed{
		// One per mode, then the four that used to get through.
		{mode: "baseline", capFrac: 1, load: 0.5, burst: 1, workers: 1},
		{mode: "e2e", capFrac: 0.5, load: 0.3, burst: 2, parity: 4, errs: 0.02, drop: 1e-2, failAt: 20, workers: 2},
		{mode: "congestion", capFrac: 1, load: 0.4, burst: 1, hotspots: 2, outage: "sw0.3->sw1.2", outStart: 10, outEnd: 40, workers: 3},
		{p: 1, a: 1, h: 1, mode: "baseline", capFrac: 1, load: 0.5, burst: 1},
		{p: 255, mode: "baseline", capFrac: 1, load: 0.5, burst: 1}, // radix 69, see below
		{mode: "e2e", capFrac: math.NaN(), load: 0.5, burst: 1},
		{mode: "e2e", capFrac: 1, load: 0.5, burst: 1, errs: 2},
		{p: 2, a: 1, h: 2, mode: "e2e", capFrac: math.Inf(1), load: math.Inf(1), burst: 0, parity: 2, bypass: true},
	} {
		f.Add(s.p, s.a, s.h, s.mode, s.capFrac, s.load, s.burst, s.hotspots, s.parity, s.errs, s.drop, s.corrupt,
			s.outage, s.outStart, s.outEnd, s.failSw, s.failPort, s.failAt, s.bypass, s.workers)
	}
	f.Fuzz(func(t *testing.T, p, a, h uint8, mode string, capFrac, load float64, burst, hotspots, parity int,
		errs, drop, corrupt float64, outage string, outStart, outEnd int64, failSw, failPort int, failAt int64,
		bypass bool, workers int) {
		plan := &fault.Plan{Seed: 3, LinkDropRate: drop, CorruptRate: corrupt}
		if outage != "" {
			plan.Outages = []fault.Outage{{Link: outage, Start: outStart, End: outEnd}}
		}
		if failAt != 0 {
			plan.StashFailures = []fault.StashFail{{Switch: failSw, Port: failPort, At: failAt}}
		}
		sp := Spec{
			Preset: "tiny", P: int(p % 5), A: int(a % 5), H: int(h % 5),
			Mode: mode, CapFrac: capFrac, Load: load,
			MsgPkts: max(-1, min(burst, 8)), Hotspots: max(-1, min(hotspots, 8)),
			Seed: 1, Invariants: 16, Workers: max(0, min(workers, 4)),
			ErrRate: errs, Fault: plan,
			StashParity: max(-1, min(parity, 40)), StashBypass: bypass,
		}
		if p == 255 { // the one topology that is too big: refused by its radix, so never built
			sp.P, sp.A, sp.H = 30, 30, 10
		}
		cfg, err := sp.Config()
		if err != nil {
			return
		}
		n, err := sp.New(cfg)
		if err != nil {
			if !strings.Contains(err.Error(), "fault plan names links") && !strings.Contains(err.Error(), "stash failure at") {
				t.Fatalf("Config let %+v through and the network refused it: %v", sp, err)
			}
			return
		}
		defer n.Close()
		sp.Wire(n, sim.NewRNG(sp.Seed+77))
		n.Run(64)
	})
}
