package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// runFixture runs one analyzer over one testdata fixture and reports the
// mismatches between its diagnostics and the fixture's want comments.
func runFixture(t *testing.T, a *Analyzer, fixture, asPath string) {
	t.Helper()
	l := NewLoader(moduleRoot(t))
	problems, err := RunFixture(l, a, FixturePath(fixture), asPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, Determinism, "determinism", "stashsim/internal/detfix")
}

// TestDeterminismSimExemption loads a fixture under the internal/sim
// path, where goroutine spawns are the executor barrier and permitted.
func TestDeterminismSimExemption(t *testing.T) {
	runFixture(t, Determinism, "determinism_sim", "stashsim/internal/sim")
}

func TestNilSafeFixture(t *testing.T) {
	runFixture(t, NilSafe, "nilsafe", "stashsim/internal/nsfix")
}

func TestPanicStyleFixture(t *testing.T) {
	runFixture(t, PanicStyle, "panicstyle", "stashsim/internal/panicfix")
}

func TestPhaseCheckFixture(t *testing.T) {
	runFixture(t, PhaseCheck, "phasecheck", "stashsim/internal/phasefix")
}

// The snapshot codec participates in both contracts: checkpoint bytes
// must be a deterministic function of state (no map-order iteration in
// encoders) and Checkpoint/Restore are serial-phase walks that the
// parallel closure must not reach. Each fixture pairs a true positive
// with the clean shape the real codec uses.
func TestDeterminismSnapshotFixture(t *testing.T) {
	runFixture(t, Determinism, "snapshot_determinism", "stashsim/internal/snapshot")
}

func TestPhaseCheckSnapshotFixture(t *testing.T) {
	runFixture(t, PhaseCheck, "snapshot_phase", "stashsim/internal/snapshot")
}

// TestPhaseCheckClean asserts a correctly annotated package carries zero
// findings (the fixture has no want comments, so any diagnostic fails).
func TestPhaseCheckClean(t *testing.T) {
	runFixture(t, PhaseCheck, "phasecheck_clean", "stashsim/internal/phasecleanfix")
}

func TestAtomicCheckFixture(t *testing.T) {
	runFixture(t, AtomicCheck, "atomiccheck", "stashsim/internal/atomfix")
}

func TestAtomicCheckClean(t *testing.T) {
	runFixture(t, AtomicCheck, "atomiccheck_clean", "stashsim/internal/atomcleanfix")
}

// TestAllocFreeFixture loads the fixture beneath internal/sim so the
// in-scope callee-closure rule applies to it.
func TestAllocFreeFixture(t *testing.T) {
	runFixture(t, AllocFree, "allocfree", "stashsim/internal/sim/allocfix")
}

func TestAllocFreeClean(t *testing.T) {
	runFixture(t, AllocFree, "allocfree_clean", "stashsim/internal/core/alloclean")
}

// TestSnapCheckFixture: a struct with a state walk in snapshot.go owes an
// answer for every field — walked structs are found through receivers,
// element-walk literals and by-value containment.
func TestSnapCheckFixture(t *testing.T) {
	runFixture(t, SnapCheck, "snapcheck", "stashsim/internal/snapfix")
}

func TestSnapCheckClean(t *testing.T) {
	runFixture(t, SnapCheck, "snapcheck_clean", "stashsim/internal/snapcleanfix")
}

func TestScopes(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		rel      string
		want     bool
	}{
		{Determinism, "internal/core", true},
		{Determinism, "internal/sim", true},
		{Determinism, "cmd/stashsim", true},
		{Determinism, "examples/quickstart", true},
		{Determinism, "internal/metrics", true},
		{Determinism, "internal/stats", true},
		{Determinism, "internal/telemetry", false},
		{Determinism, "internal/trace", false},
		{Determinism, "internal/analysis", false},
		{NilSafe, "internal/metrics", true},
		{NilSafe, "internal/core", false},
		{PanicStyle, "internal/buffer", true},
		{PanicStyle, "cmd/stashsim", false},
		{PhaseCheck, "internal/sim", true},
		{PhaseCheck, "internal/core", true},
		{PhaseCheck, "internal/metrics", true},
		{PhaseCheck, "internal/telemetry", true},
		{PhaseCheck, "internal/network", true},
		{PhaseCheck, "internal/buffer", false},
		{AtomicCheck, "internal/core", true},
		{AtomicCheck, "cmd/stashsim", true},
		{AtomicCheck, "internal/analysis", true},
		{AllocFree, "internal/sim", true},
		{AllocFree, "internal/buffer", true},
		{AllocFree, "internal/proto", true},
		{AllocFree, "internal/metrics", false},
		{AllocFree, "cmd/stashsim", false},
		{SnapCheck, "internal/core", true},
		{SnapCheck, "internal/network", true},
		{SnapCheck, "cmd/stashsim", false},
	}
	for _, c := range cases {
		if got := c.analyzer.Scope(c.rel); got != c.want {
			t.Errorf("%s.Scope(%q) = %v, want %v", c.analyzer.Name, c.rel, got, c.want)
		}
	}
}

// TestRepoClean is the in-process form of `make lint`: the whole module
// must carry zero findings. Skipped under -short (the race pass) — the
// full typecheck of the module plus its std dependencies takes seconds.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint skipped in short mode")
	}
	l := NewLoader(moduleRoot(t))
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	// Module-wide facts, as the stashlint driver builds them, so phase and
	// noalloc annotations resolve across package boundaries.
	facts := BuildFacts(pkgs...)
	for _, pkg := range pkgs {
		for _, a := range All() {
			if pkg.Rel == "" || !a.Scope(pkg.Rel) {
				continue
			}
			pass := NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Path, pkg.Info)
			pass.Facts = facts
			if err := a.Run(pass); err != nil {
				t.Fatalf("%s on %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range pass.Diagnostics() {
				t.Errorf("%s", d)
			}
		}
	}
}
