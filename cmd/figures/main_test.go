package main

import (
	"flag"
	"io"
	"os"
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
	if count != 17 {
		t.Fatalf("figures declares %d flags, want 17", count)
	}
}

// TestFaultFlagsPlan: a fault flag means here what it means on
// cmd/stashsim, whose test of the same name expects the same plans from
// the same spellings — both bind harness.Spec.BindFlags and read
// Spec.FaultPlan. In particular -seed does not reach the plan, and flags
// layer on top of a plan file.
func TestFaultFlagsPlan(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(file, []byte(`{"seed": 9, "link_drop_rate": 0.5,
		"outages": [{"link": "ep5->sw1.0", "start": 500, "end": 900}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	outage := fault.Outage{Link: "sw0.3->sw1.2", Start: 1000, End: 3000}
	for _, c := range []struct {
		args []string
		want *fault.Plan
	}{
		{nil, nil},
		{[]string{"-seed", "7", "-stash-parity", "4"}, nil},
		{[]string{"-seed", "7", "-link-drop-rate", "1e-3"}, &fault.Plan{LinkDropRate: 1e-3}},
		{[]string{"-link-outage", "sw0.3->sw1.2@1000-3000"}, &fault.Plan{Outages: []fault.Outage{outage}}},
		{[]string{"-stash-fail", "0.1@5000,2.0@7"}, &fault.Plan{StashFailures: []fault.StashFail{{Switch: 0, Port: 1, At: 5000}, {Switch: 2, Port: 0, At: 7}}}},
		{[]string{"-fault-plan", file}, &fault.Plan{Seed: 9, LinkDropRate: 0.5,
			Outages: []fault.Outage{{Link: "ep5->sw1.0", Start: 500, End: 900}}}},
		{[]string{"-fault-plan", file, "-link-drop-rate", "0.25", "-link-outage", "sw0.3->sw1.2@1000-3000", "-stash-fail", "1.1@10"},
			&fault.Plan{Seed: 9, LinkDropRate: 0.25,
				Outages:       []fault.Outage{{Link: "ep5->sw1.0", Start: 500, End: 900}, outage},
				StashFailures: []fault.StashFail{{Switch: 1, Port: 1, At: 10}}}},
	} {
		var o harness.Options
		if err := newFlags(&o).Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if got, err := o.Base.FaultPlan(); err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v: plan %+v (err %v), want %+v", c.args, got, err, c.want)
		}
	}
	// A malformed spec is an error of the one parser, not a silent no-op.
	var o harness.Options
	if err := newFlags(&o).Parse([]string{"-link-outage", "sw0.3->sw1.2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Base.FaultPlan(); err == nil {
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
// nothing).
func TestSelectExperiments(t *testing.T) {
	for _, c := range []struct {
		exp  string
		want []string // nil: refused
	}{
		{"all", experiments},
		{"table1", []string{"table1"}},
		{"fig5, faults", []string{"fig5", "faults"}},
		{"fig8", []string{"fig7", "fig8"}},
		{"fig9,all", experiments},
		{"fig55", nil},
		{"fig5,fig55", nil},
		{"fig5,", nil},
		{"", nil},
		{"ALL", nil},
	} {
		got, err := selectExperiments(c.exp)
		if c.want == nil {
			if err == nil || !strings.Contains(err.Error(), strings.Join(experiments, ", ")) {
				t.Errorf("-exp %q: got %v, err %v; want an error listing the valid names", c.exp, got, err)
			}
			continue
		}
		want := map[string]bool{}
		for _, e := range c.want {
			want[e] = true
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("-exp %q selected %v (err %v), want %v", c.exp, got, err, want)
		}
	}
}
