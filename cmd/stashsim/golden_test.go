package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"stashsim/internal/fault"
	"stashsim/internal/harness"
)

// goldenSpecs is the committed-results matrix: both cheap presets across the
// three behaviour regimes (plain stashing, fault injection with the recovery
// ladder, and ECN congestion control). Every spec pins its seed, so the
// expected output is a function of the code alone; perf refactors that shift
// any simulation outcome fail TestGoldenResults before they reach a figure.
var goldenSpecs = []struct {
	name string
	spec harness.Spec
}{
	{"tiny-baseline", harness.Spec{
		Preset: "tiny", Mode: "e2e", CapFrac: 1.0,
		Load: 0.35, MsgPkts: 1,
		Cycles: 4000, Warmup: 500, Seed: 42,
		Invariants: 64,
	}},
	{"tiny-fault", harness.Spec{
		Preset: "tiny", Mode: "e2e", CapFrac: 1.0,
		Load: 0.25, MsgPkts: 1,
		Cycles: 4000, Warmup: 500, Seed: 13,
		Fault:      &fault.Plan{Seed: 5, LinkDropRate: 2e-3, CorruptRate: 1e-3},
		Drain:      400000,
		Invariants: 64,
	}},
	{"tiny-parity", harness.Spec{
		Preset: "tiny", Mode: "e2e", CapFrac: 1.0,
		Load: 0.25, MsgPkts: 1,
		Cycles: 4000, Warmup: 500, Seed: 9,
		Fault: &fault.Plan{Seed: 3, LinkDropRate: 6e-3, StashFailures: []fault.StashFail{
			{Switch: 0, Port: 0, At: 3000}, {Switch: 0, Port: 1, At: 3200}, {Switch: 1, Port: 0, At: 3400},
			{Switch: 1, Port: 1, At: 3600}, {Switch: 2, Port: 0, At: 3800}, {Switch: 2, Port: 1, At: 4000}}},
		StashParity: 4,
		Drain:       400000,
		Invariants:  64,
	}},
	{"tiny-ecn", harness.Spec{
		Preset: "tiny", Mode: "congestion", CapFrac: 1.0,
		Load: 0.4, MsgPkts: 2, Hotspots: 2, ECN: true,
		Cycles: 4000, Warmup: 500, Seed: 8,
	}},
	{"small-baseline", harness.Spec{
		Preset: "small", Mode: "e2e", CapFrac: 1.0,
		Load: 0.3, MsgPkts: 1,
		Cycles: 1500, Warmup: 300, Seed: 42,
	}},
	{"small-fault", harness.Spec{
		Preset: "small", Mode: "e2e", CapFrac: 1.0,
		Load: 0.2, MsgPkts: 1,
		Cycles: 1500, Warmup: 300, Seed: 13,
		Fault: &fault.Plan{Seed: 5, LinkDropRate: 2e-3},
		Drain: 400000,
	}},
	{"small-parity", harness.Spec{
		Preset: "small", Mode: "e2e", CapFrac: 1.0,
		Load: 0.2, MsgPkts: 1,
		Cycles: 1500, Warmup: 300, Seed: 13,
		Fault: &fault.Plan{Seed: 5, LinkDropRate: 8e-3, StashFailures: []fault.StashFail{
			{Switch: 0, Port: 0, At: 1200}, {Switch: 0, Port: 1, At: 1300}, {Switch: 1, Port: 0, At: 1400},
			{Switch: 1, Port: 1, At: 1500}, {Switch: 2, Port: 0, At: 1600}, {Switch: 2, Port: 1, At: 1700}}},
		StashParity: 4,
		Drain:       400000,
		Invariants:  64,
	}},
	{"small-ecn", harness.Spec{
		Preset: "small", Mode: "congestion", CapFrac: 1.0,
		Load: 0.3, MsgPkts: 2, Hotspots: 2, ECN: true,
		Cycles: 1500, Warmup: 300, Seed: 8,
	}},
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

// TestGoldenResults byte-compares each spec's -json summary against the
// committed file under testdata/golden/. Run with UPDATE_GOLDEN=1 to
// regenerate after an intentional behaviour change; the diff then documents
// the change in review.
func TestGoldenResults(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, g := range goldenSpecs {
		g := g
		t.Run(g.name, func(t *testing.T) {
			got := append(runJSON(t, g.spec), '\n')
			path := goldenPath(g.name)
			if update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with UPDATE_GOLDEN=1 go test -run TestGoldenResults ./cmd/stashsim): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("summary diverged from %s\n(if intentional, regenerate with UPDATE_GOLDEN=1)\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
