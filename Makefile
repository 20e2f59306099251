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
# protocol, the worker-crossing link slabs and the shared observability
# sinks (tracer, telemetry server) are the paths it guards. -short skips
# the multi-minute simulation sweeps (they run unshortened in `make test`
# and add no concurrency coverage). Measured on a 2-CPU host once traffic
# generators let their endpoints sleep between arrivals and switches probe
# only the ports that are due: 14m56s for the whole pass, of which
# internal/network — one test binary — takes 836 s and cmd/stashsim 719 s
# beside it on the other CPU; the commit before, the same day, 15m32s /
# 896 s / 736 s. Sleeping endpoints help little under the detector: the
# long tests are the loaded tiny scenario tests, where every access also
# touches shadow memory and the instrumentation, not the simulated work,
# is the cost. internal/network alone is still past go test's 10-minute
# default per-package timeout, so the timeout stays raised.
race:
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
