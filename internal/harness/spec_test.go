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
	if err := sp.Warm(n, sp.Warmup); err != nil {
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
// Fig5 and Faults — and a checkpoint cycle the run never reaches the
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
			DropRate: 4e-3, FaultSeed: 3, StashFails: "0.0@700", StashParity: 4,
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

	// The sweeps: under Quick on tiny, Fig5 warms for 2000 cycles and Faults
	// for 1000, so cycle 900 is inside both windows.
	sweeps := map[string]func(*Options) (string, error){
		"fig5": func(o *Options) (string, error) {
			lat, acc, err := Fig5(o)
			if err != nil {
				return "", err
			}
			return lat.CSV() + acc.CSV(), nil
		},
		"faults": func(o *Options) (string, error) {
			tab, err := Faults(o)
			if err != nil {
				return "", err
			}
			return tab.CSV(), nil
		},
	}
	for name, sweep := range sweeps {
		t.Run(name, func(t *testing.T) {
			run := func(set func(*Spec)) (string, error) {
				o := testOpts(t)
				o.Log = nil
				set(&o.Base)
				return sweep(o)
			}
			want, err := run(func(*Spec) {})
			if err != nil {
				t.Fatal(err)
			}
			warm := filepath.Join(dir, name+"-warm")
			got, err := run(func(b *Spec) { b.CheckpointPath, b.CheckpointAt = warm, 900 })
			if err != nil || got != want {
				t.Fatalf("checkpointing sweep (err %v):\n%s\nstraight:\n%s", err, got, want)
			}
			if snaps, _ := filepath.Glob(warm + "." + name + ".*"); len(snaps) < 6 {
				t.Fatalf("one warm snapshot per design point expected, found %v", snaps)
			}
			got, err = run(func(b *Spec) { b.RestorePath = warm })
			if err != nil || got != want {
				t.Fatalf("resumed sweep (err %v):\n%s\nstraight:\n%s", err, got, want)
			}
			// figures -restore P -checkpoint Q@c with c not past P's cycle.
			for _, at := range []int64{200, 900} {
				again := filepath.Join(dir, name+"-again")
				_, err = run(func(b *Spec) { b.RestorePath, b.CheckpointPath, b.CheckpointAt = warm, again, at })
				if err == nil || !strings.Contains(err.Error(), "starts at cycle 900") {
					t.Errorf("restored at 900, checkpoint at %d: err = %v, want one naming both cycles", at, err)
				}
				noFiles(t, again)
			}
			// A cycle past the window is refused too, as it always was.
			late := filepath.Join(dir, name+"-late")
			if _, err = run(func(b *Spec) { b.CheckpointPath, b.CheckpointAt = late, 1<<40 }); err == nil {
				t.Error("checkpoint cycle past the window accepted")
			}
			noFiles(t, late)
		})
	}
}

// TestAssertDeliveryIsCheckedUpFront: asking for the exactly-once check
// without the drain that makes it meaningful, or without anything that
// tracks deliveries, is refused by Config — before a network is built —
// not after the whole run.
func TestAssertDeliveryIsCheckedUpFront(t *testing.T) {
	base := Spec{Preset: "tiny", Mode: "e2e", CapFrac: 1.0, Load: 0.3, MsgPkts: 1, Cycles: 100, AssertDelivery: true}
	for _, c := range []struct {
		name string
		set  func(*Spec)
		want string // "" = accepted
	}{
		{"no drain", func(sp *Spec) { sp.DropRate = 1e-3 }, "requires a drain window"},
		{"no faults", func(sp *Spec) { sp.Drain = 1000 }, "requires fault injection or the recovery timers"},
		{"drops", func(sp *Spec) { sp.Drain, sp.DropRate = 1000, 1e-3 }, ""},
		{"timers", func(sp *Spec) { sp.Drain, sp.Retrans = 1000, true }, ""},
	} {
		sp := base
		c.set(&sp)
		_, err := sp.Config()
		if (c.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
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
// base spec: any fault plan arms the recovery timers in every mode (a
// stashsim run arms them only for drops in e2e mode), parity reaches only
// e2e networks, and snapshot files are named by experiment and index.
func TestPointDerivation(t *testing.T) {
	o := &Options{Base: Spec{Preset: "tiny", Seed: 3, StashFails: "0.0@100", StashParity: 4,
		CheckpointPath: "w", CheckpointAt: 9, RestorePath: "r"}}
	for _, v := range congVariants {
		sp := o.point("fig9", 7, v.mode, v.capFrac, true)
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
	e2e := o.point("fig5", 0, e2eVariants[1].mode, 0.5, false)
	if cfg, err := e2e.Config(); err != nil || cfg.StashParity != 4 || !cfg.RetainPayload || cfg.StashCapFrac != 0.5 {
		t.Errorf("e2e point: %+v, err %v", cfg, err)
	}
	plain := (&Options{Base: Spec{Preset: "tiny"}}).point("fig5", 0, e2eVariants[1].mode, 1, false)
	if cfg, err := plain.Config(); err != nil || cfg.Retrans.Enabled || cfg.Fault != nil {
		t.Errorf("fault-free point: %+v, err %v", cfg, err)
	}
	if _, err := os.Stat("w.fig9.007"); err == nil {
		t.Error("deriving a point wrote a file")
	}
}
