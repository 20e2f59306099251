package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"stashsim/internal/fault"
	"stashsim/internal/harness"
)

func newFlags(o *harness.Options) *flag.FlagSet {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	defineFlags(fs, o, new(cliOpts))
	return fs
}

// TestFlagCount pins the size of the flag surface: a new flag has to
// argue its way past this number (simplicity-review, Options).
func TestFlagCount(t *testing.T) {
	count := 0
	newFlags(new(harness.Options)).VisitAll(func(*flag.Flag) { count++ })
	if count != 14 {
		t.Fatalf("figures declares %d flags, want 14", count)
	}
}

// TestFaultFlagsPlan: -fault-plan means here what it means on
// cmd/stashsim, whose test of the same name expects the same plans from the
// same spellings — both bind harness.Spec.BindFlags. In particular -seed
// does not reach the plan, the file loads whole, and a file that holds no
// valid plan is a usage error.
func TestFaultFlagsPlan(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(file, []byte(`{"seed": 9, "link_drop_rate": 0.5, "corrupt_rate": 1e-4,
		"outages": [{"link": "ep5->sw1.0", "start": 500, "end": 900}],
		"stash_failures": [{"switch": 1, "port": 1, "at": 10}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want *fault.Plan
	}{
		{nil, nil},
		{[]string{"-seed", "7", "-stash-parity", "4"}, nil},
		{[]string{"-seed", "7", "-fault-plan", file}, &fault.Plan{Seed: 9, LinkDropRate: 0.5, CorruptRate: 1e-4,
			Outages:       []fault.Outage{{Link: "ep5->sw1.0", Start: 500, End: 900}},
			StashFailures: []fault.StashFail{{Switch: 1, Port: 1, At: 10}}}},
	} {
		var o harness.Options
		if err := newFlags(&o).Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if !reflect.DeepEqual(o.Base.Fault, c.want) {
			t.Errorf("%v: plan %+v, want %+v", c.args, o.Base.Fault, c.want)
		}
	}
	// A malformed plan is an error of the one parser, not a silent no-op.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"outages": [{"link": "sw0.3->sw1.2"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := newFlags(new(harness.Options)).Parse([]string{"-fault-plan", bad}); err == nil {
		t.Error("outage without a window accepted")
	}
}

// TestCheckpointFlag: file@cycle is parsed by the shared flag, at the last
// "@" so that paths may contain one, and malformed values are usage errors.
func TestCheckpointFlag(t *testing.T) {
	var o harness.Options
	if err := newFlags(&o).Parse([]string{"-checkpoint", "run@1/warm@900", "-restore", "prev"}); err != nil {
		t.Fatal(err)
	}
	if b := o.Base; b.CheckpointPath != "run@1/warm" || b.CheckpointAt != 900 || b.RestorePath != "prev" {
		t.Fatalf("parsed %q @ %d, restore %q", b.CheckpointPath, b.CheckpointAt, b.RestorePath)
	}
	for _, bad := range []string{"warm", "@900", "warm@", "warm@-3", "warm@x"} {
		if err := newFlags(new(harness.Options)).Parse([]string{"-checkpoint", bad}); err == nil {
			t.Errorf("-checkpoint %q accepted", bad)
		}
	}
}

// TestSelectExperiments: every name in -exp is an experiment or "all";
// anything else is refused before the first experiment starts, with the
// valid names in the message (`-exp fig55` used to exit 0 having run
// nothing). The selection comes back in the table's order, and fig8
// selects the fig7 runs it is produced by.
func TestSelectExperiments(t *testing.T) {
	var all []string
	for _, e := range harness.Experiments {
		all = append(all, e.Name)
	}
	for _, c := range []struct {
		exp  string
		want []string // nil: refused
	}{
		{"all", all},
		{"table1", []string{"table1"}},
		{"faults, fig5", []string{"fig5", "faults"}},
		{"fig8", []string{"fig7"}},
		{"fig8,fig7", []string{"fig7"}},
		{"fig9,all", all},
		{"fig55", nil},
		{"fig5,fig55", nil},
		{"fig5,", nil},
		{"", nil},
		{"ALL", nil},
	} {
		sel, err := selectExperiments(c.exp)
		if c.want == nil {
			if err == nil || !strings.Contains(err.Error(), strings.Join(harness.Names(), ", ")) {
				t.Errorf("-exp %q: got %v, err %v; want an error listing the valid names", c.exp, sel, err)
			}
			continue
		}
		var got []string
		for _, e := range sel {
			got = append(got, e.Name)
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("-exp %q selected %v (err %v), want %v", c.exp, got, err, c.want)
		}
	}
}

// TestCheckSnapshots: -checkpoint and -restore are held against every
// selected experiment's plan before the first one runs. `-exp
// table1,fig5,faults -checkpoint w@6500` used to run table1 and fail when
// fig5 started; `-exp fig7 -checkpoint w@500` used to exit 0 having written
// nothing. Under -quick fig5's window is 7000 cycles, fig9's 8580,
// ablations' 4800 and faults' 5000.
func TestCheckSnapshots(t *testing.T) {
	for _, c := range []struct {
		exp, checkpoint, restore string
		want                     []string // nil: accepted
	}{
		{"all", "", "", nil},
		{"fig5,fig9,ablations,faults", "w@3000", "", nil},
		{"fig5,fig9,ablations,faults", "w@4799", "w0", nil},
		{"fig5,fig9", "w@6999", "", nil},
		{"fig5,faults", "", "w", nil},
		{"table1,fig5,faults", "w@6500", "", []string{"table1: not checkpointable", "faults: cycles [0, 5000)"}},
		{"fig5,fig9", "w@7000", "", []string{"fig5: cycles [0, 7000)"}},
		{"fig7", "w@500", "", []string{"fig7: not checkpointable"}},
		{"fig8,fig6", "", "w", []string{"fig6: not checkpointable", "fig7: not checkpointable"}},
		{"all", "w@0", "", []string{"table1:", "table2:", "fig6:", "fig7:"}},
	} {
		o := new(harness.Options)
		args := []string{"-preset", "tiny", "-quick"}
		if c.checkpoint != "" {
			args = append(args, "-checkpoint", c.checkpoint)
		}
		if c.restore != "" {
			args = append(args, "-restore", c.restore)
		}
		if err := newFlags(o).Parse(args); err != nil {
			t.Fatal(err)
		}
		sel, err := selectExperiments(c.exp)
		if err != nil {
			t.Fatal(err)
		}
		err = checkSnapshots(sel, o)
		if (err == nil) != (c.want == nil) {
			t.Errorf("-exp %s -checkpoint %q -restore %q: err = %v, want offenders %v", c.exp, c.checkpoint, c.restore, err, c.want)
		}
		for _, offender := range c.want {
			if err != nil && !strings.Contains(err.Error(), offender) {
				t.Errorf("-exp %s -checkpoint %q: %v does not name %q", c.exp, c.checkpoint, err, offender)
			}
		}
		if err != nil && strings.Count(err.Error(), ";") != len(c.want)-1 {
			t.Errorf("-exp %s -checkpoint %q: %v names more than %v", c.exp, c.checkpoint, err, c.want)
		}
	}
}

// TestFailingRunKeepsProfiles re-executes the test binary as figures with an
// experiment that fails once the profiles are on (fig5 restoring from a
// snapshot that does not exist): it must exit 1 and still leave a CPU and a
// heap profile pprof can read, gzip streams both, where the exit used to
// skip the deferred stop and the heap profile's write.
func TestFailingRunKeepsProfiles(t *testing.T) {
	if args := os.Getenv("FIGURES_ARGS"); args != "" {
		os.Args = append([]string{"figures"}, strings.Fields(args)...)
		main()
		return
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailingRunKeepsProfiles$")
	cmd.Env = append(os.Environ(), "FIGURES_ARGS=-exp fig5 -preset tiny -quick -workers 1 -restore "+filepath.Join(dir, "missing")+
		" -cpuprofile "+cpu+" -memprofile "+mem)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "fig5 FAILED") {
		t.Fatalf("want exit 1 naming the failed experiment, got %v:\n%s", err, out)
	}
	for _, prof := range []string{cpu, mem} {
		if b, err := os.ReadFile(prof); err != nil || !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s of the failing run: %d bytes (err %v), want a gzip stream", filepath.Base(prof), len(b), err)
		}
	}
}
