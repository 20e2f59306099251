package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

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
		DropRate: 2e-3, CorruptRate: 1e-3, FaultSeed: 5,
		Drain:      400000,
		Invariants: 64,
	}},
	{"tiny-parity", harness.Spec{
		Preset: "tiny", Mode: "e2e", CapFrac: 1.0,
		Load: 0.25, MsgPkts: 1,
		Cycles: 4000, Warmup: 500, Seed: 9,
		DropRate: 6e-3, FaultSeed: 3,
		StashFails:  "0.0@3000,0.1@3200,1.0@3400,1.1@3600,2.0@3800,2.1@4000",
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
		DropRate: 2e-3, FaultSeed: 5,
		Drain: 400000,
	}},
	{"small-parity", harness.Spec{
		Preset: "small", Mode: "e2e", CapFrac: 1.0,
		Load: 0.2, MsgPkts: 1,
		Cycles: 1500, Warmup: 300, Seed: 13,
		DropRate: 8e-3, FaultSeed: 5,
		StashFails:  "0.0@1200,0.1@1300,1.0@1400,1.1@1500,2.0@1600,2.1@1700",
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
