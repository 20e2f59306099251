package main

import (
	"bytes"
	"flag"
	"path/filepath"
	"runtime"
	"testing"

	"stashsim/internal/fault"
	"stashsim/internal/harness"
)

var smoke = flag.Bool("smoke", false, "run TestCLISmoke, the CLI-scale end-to-end table behind `make smoke`")

// TestCLISmoke drives full CLI-scale runs in process: each row is one set
// of flags, run once per variant with -invariants, -drain and
// -assert-delivery, and every variant's -json must equal the first's byte
// for byte. Off by default (each small-preset run takes several seconds);
// `make smoke` passes -smoke.
func TestCLISmoke(t *testing.T) {
	if !*smoke {
		t.Skip("CLI-scale runs; enable with -smoke (make smoke)")
	}
	snap := filepath.Join(t.TempDir(), "mid.snap")
	// The small preset under drops with bank failures striking mid-run:
	// 19 groups and a 650-cycle global link, so four workers really
	// free-run between barriers.
	faulted := harness.Spec{
		Preset: "small", Mode: "e2e", CapFrac: 1.0, Load: 0.2, MsgPkts: 1,
		Cycles: 8000, Seed: 13, Drain: 400000,
		Fault: &fault.Plan{LinkDropRate: 1e-3, StashFailures: []fault.StashFail{
			{Switch: 0, Port: 0, At: 4000}, {Switch: 1, Port: 1, At: 5500}, {Switch: 2, Port: 0, At: 6001}}},
	}
	rows := []struct {
		name     string
		spec     harness.Spec
		variants []func(*harness.Spec)
	}{
		// The recovery ladder (stash resend -> endpoint resend -> dedup)
		// under per-link drops.
		{name: "fault", spec: harness.Spec{
			Preset: "tiny", Mode: "e2e", CapFrac: 1.0, Load: 0.2, MsgPkts: 1,
			Cycles: 25000, Seed: 1, Drain: 150000,
			Fault: &fault.Plan{LinkDropRate: 1e-3},
		}},
		// XOR parity groups over the stash banks, drops keeping retained
		// copies alive, staggered bank failures: the reconstruction tier.
		{name: "ec", spec: harness.Spec{
			Preset: "small", Mode: "e2e", CapFrac: 1.0, Load: 0.2, MsgPkts: 1,
			Cycles: 8000, Seed: 13, StashParity: 4,
			Fault: &fault.Plan{LinkDropRate: 5e-3, StashFailures: []fault.StashFail{
				{Switch: 0, Port: 0, At: 4000}, {Switch: 0, Port: 1, At: 4500}, {Switch: 1, Port: 0, At: 5000},
				{Switch: 1, Port: 1, At: 5500}, {Switch: 2, Port: 0, At: 6000}, {Switch: 2, Port: 1, At: 6500}}},
			Drain: 400000,
		}},
		// Four group partitions against one.
		{name: "pdes", spec: faulted, variants: []func(*harness.Spec){
			func(sp *harness.Spec) { sp.Workers = 4 },
			func(sp *harness.Spec) { sp.Workers = 1 },
		}},
		// A checkpoint written by four workers between the first two bank
		// failures, with drop recovery in flight; resumed by one; both
		// against one worker straight through.
		{name: "ckpt", spec: faulted, variants: []func(*harness.Spec){
			func(sp *harness.Spec) { sp.Workers, sp.CheckpointPath, sp.CheckpointAt = 4, snap, 4700 },
			func(sp *harness.Spec) { sp.Workers, sp.RestorePath = 1, snap },
			func(sp *harness.Spec) { sp.Workers = 1 },
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.variants == nil {
				row.variants = []func(*harness.Spec){func(*harness.Spec) {}}
			}
			var first []byte
			for i, mutate := range row.variants {
				sp := row.spec
				sp.Invariants, sp.AssertDelivery = 64, true
				sp.Workers = runtime.GOMAXPROCS(0) // the -workers default
				mutate(&sp)
				n, err := sp.Build()
				if err != nil {
					t.Fatal(err)
				}
				got := marshalSummary(t, runSpec(t, &sp, n))
				if i == 0 {
					first = got
				} else if !bytes.Equal(first, got) {
					t.Fatalf("variant %d -json differs from variant 0:\n--- 0 ---\n%s\n--- %d ---\n%s", i, first, i, got)
				}
			}
		})
	}
}
