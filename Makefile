# Convenience targets for the stashsim reproduction.

GO ?= go

.PHONY: all build test vet lint race smoke figures figures-paper examples clean

all: build vet lint test race smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: one stashlint process runs all seven
# analyzers (determinism, nilsafe, panicstyle, phasecheck, atomiccheck,
# allocfree, snapcheck) over the whole module, cmd/ included. phasecheck,
# atomiccheck and allocfree machine-check the executor's concurrency &
# zero-alloc contract (see DESIGN.md, "Concurrency contract"); snapcheck
# checks that every field of a checkpointed struct is walked in its
# package's snapshot.go or marked //stashsim:derived / //stashsim:transient
# with a reason. The scopes live next to each analyzer. Suppress a finding
# with `//lint:allow <analyzer> -- reason`; `-json` emits findings as JSON
# for tooling.
lint:
	$(GO) run ./cmd/stashlint ./...

# bench/ is its own module (invisible to ./...) that compiles against
# core.Link, sim.ExecReport and the network API, so it is vetted and tested
# here too. The benchmark itself is `go run -C bench .` (BENCHMARK.json).
test:
	$(GO) test ./...
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# Race-detector pass (tier-1 alongside vet); the executor's barrier
# protocol, the worker-crossing link stages and the shared observability
# sinks (tracer, telemetry server, a profiler shared by sweep points) are
# the paths it guards. The first line races the crossing path alone, in
# seconds, so a race there cannot hide behind the second's timeout.
# -short skips the multi-minute simulation sweeps
# (they run unshortened in `make test` and add no concurrency coverage).
# Last measured on a 2-CPU host once crossing links staged in pools and
# the fault flags had become one plan: 30m34s, failing as the runs
# before it did. The first line passed in 3 s. Then
# cmd/stashsim hit the 30-minute timeout inside
# TestWorkersDeterminism/faulted-drain, still running after 21m04s, after
# TestGoldenResults (245 s) and TestRunIsDeterministic (78 s) had passed;
# internal/network passed in 1083 s beside it (1574 s at the run before);
# trace took 73 s, buffer 38 s, telemetry 17 s, analysis and endpoint
# 12 s each, and every other package one or two seconds. The long pole is
# faulted-drain's -invariants=1 row: at -workers 4 it audits every list of
# every switch, most of them empty, each cycle, in one-cycle epochs
# (ROADMAP item 5); without -race the row took 75 s on the same host.
# The timeout stays at 30 minutes, past go test's 10-minute default.
race:
	$(GO) test -race -count=1 -run 'TestParallelStepRace|TestBlocksIndependentOfWorkers' ./internal/network
	$(GO) test -race -short -timeout 30m ./...

# CLI-scale end-to-end smoke: TestCLISmoke runs the real flag sets in
# process — drops with the recovery ladder (tiny), parity reconstruction
# under staggered bank failures, four workers vs one, and a four-worker
# checkpoint resumed by one worker — each under -invariants with a drain
# that must end in exactly-once delivery, the multi-run rows diffing their
# -json byte for byte.
smoke:
	$(GO) test -count=1 -run TestCLISmoke ./cmd/stashsim -smoke

# Regenerate every table and figure on the scaled (342-endpoint) network.
figures:
	$(GO) run ./cmd/figures -exp all -preset small -out results/small

# The paper's full 3080-endpoint configuration. Estimated for one core of the
# PR 22 host from short timed runs (EXPERIMENTS.md, "Paper-preset budget"):
# fig5 ~3.4 h, fig9 ~2.9 h, ablations ~0.9 h, fig7/fig8 ~0.6 h, faults ~0.3 h,
# fig6 unmeasured; half that with the sweep pool on two. Run one `-exp` per
# session rather than `all`.
figures-paper:
	$(GO) run ./cmd/figures -exp all -preset paper -out results/paper

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/reliability
	$(GO) run ./examples/congestion
	$(GO) run ./examples/traces

# Removes only untracked artefacts. results/README.md and the small/tiny
# datasets under results/ are committed (EXPERIMENTS.md cites them), so
# `clean` must not touch them; results/paper is the one regenerated-only
# directory.
clean:
	rm -rf bench/out results/paper
	find . \( -name '*.test' -o -name '*.prof' \) -delete
