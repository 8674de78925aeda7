# Mirrors the CI pipeline (.github/workflows/ci.yml): `make ci` is what a
# green build requires.

GO ?= go

# Fuzz budget per target for `make fuzz` (the CI smoke); raise it for a
# real hunt, e.g. `make fuzz FUZZTIME=5m`.
FUZZTIME ?= 10s

# Same-run throughput floor for the batched fleet kernel: the default batch
# width must be at least this many times faster than width-1 units on
# BenchmarkFleetThroughput (median of 5 paired repetitions). Both sides run
# the same kernel, so the ratio is the shared-step amortization alone: the
# scenario's SharedStep (phase lookup, Sin/Tanh demand shaping) is ~9.5% of
# width-1 CPU and ~1.5% at the default width. On a 2-CPU shared Xeon the
# pair medians of 32 bench-ratio runs read 1.00-1.34x (typically ~1.1x).
# The floor would prove a speedup only if the lowest median less a 0.05
# noise margin were at least 1.0; it is 0.95, so the floor stays at 0.9
# and catches the batched path becoming materially slower than width 1 —
# see docs/benchmarks.md.
# Raise it only after re-measuring, lower it only with a written
# justification of what legitimately got slower.
MIN_SPEEDUP ?= 0.9

# Absolute B/op ceiling for the batched fleet kernel on
# BenchmarkFleetThroughput/batched. Per-op bytes are a property of the
# code path (fixed-size buffers, pooled arenas), not the host, so the
# ceiling travels across runners. Set from a measured ~239 kB/op with
# ~65% headroom; a trip means per-op memory genuinely grew (a pool that
# stopped pooling, a slice that started escaping). bench-json checks it
# on a run of its own at -cpu 1: at GOMAXPROCS 2 the one timed op can
# land on another P than the warm-up did and miss the batch arenas that
# sync.Pool keeps per P (1 of 60 runs read ~492 kB, with GC off too),
# while at -cpu 1 every run reads the same bytes.
MAX_BATCH_BYTES ?= 400000

# Absolute B/op ceiling for the in-process warm fleet on BenchmarkFleetWarm
# (1024 store-served cells per op). The steady state is ~0.87 MB/op, but
# an op in which the merge frontier stalls (a descheduled worker, a GC)
# fills the collector's pending window and refills the aggregator pool at
# ~6 KB per aggregator. Over 40 runs of the bench-json shape on a 2-CPU
# host B/op read 0.86-2.56 MB (ten of them: 0.87-1.46 MB); the ceiling
# leaves ~60% headroom over the worst. Reflective JSON decoding of the
# entries measured ~21.4 MB/op, so a return to it fails on any host; the
# allocs/op gate, now at ~3.7k against the 13.9k of per-cell key
# marshalling, catches smaller per-hit garbage.
MAX_WARM_BYTES ?= 4100000

.PHONY: all build cross test race bench-harness bench-digests bench bench-json bench-baseline bench-ratio bench-record lint fmt fuzz cover api-check api-surface daemon-smoke soak soak-smoke ci clean

# The hot-loop benchmarks whose allocs/op are engineered to be flat and
# machine-independent; bench-json gates them against BENCH_baseline.json.
# BenchmarkStreamingRun covers the session-API streaming path (goroutine +
# channel handoff per interval) on top of the raw simulation cell;
# BenchmarkFleetCell covers the fleet unit of work as a one-device fleet run
# (per-device scenario run folded into the online aggregators, no trace
# retained, plus the run's planner, collector and report);
# BenchmarkFleetThroughput covers the batched SoA fleet kernel at its
# default width against width 1 (same fleet, BatchSize 1 vs default);
# BenchmarkFleetWarm covers the store-served warm fleet (entry read,
# verify, decode, merge, report; no simulation);
# BenchmarkStagePredict covers the DTPM predictor stage at model orders 4
# and 8, BenchmarkStagePower the fused ground-truth power pass,
# BenchmarkStageThermalStep one BatchSim step, BenchmarkStageTick one
# scheduler tick, BenchmarkStageUpdate one DTPM controller update and
# BenchmarkStageReseed the per-cell sensor and background reseeding (all 0
# allocs/op, so any allocation fails the gate);
# BenchmarkStoreDecode and BenchmarkStorePut cover one store hit (entry
# read and verify, 2 allocs/op) and one entry write on a real fleet-cell
# entry. BenchmarkCharacterization covers the §4 characterization rig
# (furnace sweeps and PRBS runs on width-1 BatchSims through the fused
# power pass, simulated concurrently, each PRBS dataset in two slabs;
# ~1.7k allocs/op, flat across runs, where per-interval garbage made it
# ~129k).
HOTBENCH = BenchmarkSimCell$$|BenchmarkSimCellDTPM$$|BenchmarkStreamingRun$$|BenchmarkFleetCell$$|BenchmarkFleetThroughput$$|BenchmarkFleetWarm$$|BenchmarkStagePredict$$|BenchmarkStagePower$$|BenchmarkStageThermalStep$$|BenchmarkStageTick$$|BenchmarkStageUpdate$$|BenchmarkStageReseed$$|BenchmarkCharacterization$$|BenchmarkStoreDecode$$|BenchmarkStorePut$$

all: build

build:
	$(GO) build ./...

# The store reads entries with raw syscalls in one untagged path (see
# internal/store readEntry); building for darwin and windows keeps that
# path portable, so it never needs a build-tagged fork.
cross:
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark harness is a module of its own (bench/go.mod, built
# against this one through a replace directive), so ./... does not reach
# it; its committed report digests pin the kernel's output bytes.
bench-harness:
	cd bench && $(GO) test ./...

# The harness's own tests pin digests they compute from a miniature; the
# committed full-size digests (bench/expected_digests.json, seed 1) are
# checked only by a real run at that seed. This runs every workload there
# for 15 s and fails unless each run ends "committed digests match" (exit
# 0) and every stream ran at least 15 ops, so each repeating stream
# covered its 15 inputs. The harness checks only the ops that ran; on a
# 2-CPU host the slowest stream, fleet-cold's, runs 40–80.
bench-digests:
	mkdir -p .bench_build
	for w in fleet-cold fleet-warm daemon-mixed campaign-grid; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 15 --trace 0 >/dev/null 2>.bench_build/digests.txt; \
		s=$$?; cat .bench_build/digests.txt; test $$s -eq 0 || exit 1; \
		awk -v w=$$w '$$1 == "stream" && $$3 < 15 { print "bench-digests: " w "/" $$2 " ran " $$3 " ops, fewer than its 15 inputs"; bad = 1 } END { exit bad }' .bench_build/digests.txt || exit 1; \
	done

# One iteration of every benchmark with allocation stats — the same
# trajectory snapshot the CI bench job archives.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./... | tee bench.txt

# Machine-readable allocation snapshot of the simulation hot loops plus the
# regression gate: fails when allocs/op grew >20% over the committed
# baseline, or when B/op of the batched kernel, the warm fleet or the
# accounting-on cell passes its absolute ceiling. ns/op rides along in the
# artifact for trend diffing but is never gated (it depends on the host).
#
# The accounting-on cell is BenchmarkSimCellDTPM: dijkstra, 2,561
# intervals, with the §6.3.1 prediction accounting folding each interval
# as its measurement arrives and keeping only a ring of horizon+1
# predicted maxima. Over 17 runs on a 2-CPU host its B/op read
# 42.8-44.1 kB; the 64 kB ceiling leaves ~45% headroom over the worst. A
# steps x nodes prediction buffer (82 kB on this cell; 127.6 kB/op before
# the ring) fails it on any host.
bench-json:
	$(GO) test -run '^$$' -bench '$(HOTBENCH)' -benchtime 1x -benchmem . \
		| $(GO) run ./cmd/benchjson -out BENCH_latest.json
	$(GO) run ./cmd/benchjson -check -max-allocs-regress 0.20 BENCH_baseline.json BENCH_latest.json
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'BenchmarkFleetThroughput$$/^batched$$' -benchtime 1x -benchmem -cpu 1 . \
		| $(GO) run ./cmd/benchjson -out .bench_build/batch-bytes.json
	$(GO) run ./cmd/benchjson -max-bytes 'BenchmarkFleetThroughput/batched,$(MAX_BATCH_BYTES)' .bench_build/batch-bytes.json
	$(GO) run ./cmd/benchjson -max-bytes 'BenchmarkFleetWarm,$(MAX_WARM_BYTES)' BENCH_latest.json
	$(GO) run ./cmd/benchjson -max-bytes 'BenchmarkSimCellDTPM,64000' BENCH_latest.json

# Regenerate the committed baseline after an INTENTIONAL allocation-profile
# change; say why in the commit message.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(HOTBENCH)' -benchtime 1x -benchmem . \
		| $(GO) run ./cmd/benchjson -out BENCH_baseline.json

# Batched-vs-width-1 throughput ratio gate. Each of the 5 pairs is one
# `go test` invocation that runs /scalar and then /batched back to back on
# the same host, so their devices/sec ratio is host-independent even on
# noisy shared runners. (One -count 5 invocation would run all five /scalar
# repetitions before any /batched one, and host drift between the two
# halves would decide the ratio.) Judging the median pair ratio keeps one
# noisy pair from deciding it. Fails when the median < MIN_SPEEDUP.
bench-ratio:
	for i in 1 2 3 4 5; do \
		$(GO) test -run '^$$' -bench 'BenchmarkFleetThroughput$$' -benchtime 3x -count 1 -benchmem . || exit 1; \
	done | $(GO) run ./cmd/benchjson -out BENCH_throughput.json
	$(GO) run ./cmd/benchjson \
		-min-speedup 'BenchmarkFleetThroughput/batched,BenchmarkFleetThroughput/scalar,$(MIN_SPEEDUP)' \
		BENCH_throughput.json

# Archive a full benchmark sweep under benchmarks/results/ with a
# timestamped filename and host provenance (OS/arch/CPU/core-count/Go
# version): the directory accumulates the perf trajectory across commits
# and machines. Records are committed — the directory IS the trajectory —
# so run this when a PR changes the perf profile and commit the new file
# alongside it.
bench-record:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./... \
		| $(GO) run ./cmd/benchjson -record benchmarks/results

# lint also runs the dead-surface check: an exported name under internal/
# that only tests use fails it (deadsurface_test.go, whose allowlist is
# internal/deadsurface.allow).
lint:
	$(GO) vet ./...
	$(GO) test -count=1 -run '^TestDeadSurface' .
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; fi

fmt:
	gofmt -w .

# Fuzz smoke: every fuzz target for FUZZTIME each (go only allows one
# -fuzz target per invocation, hence one line per target).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseTrace$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioSpec$$' -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzFleetSpec$$' -fuzztime $(FUZZTIME) ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzCellEntry$$' -fuzztime $(FUZZTIME) ./internal/fleet

# Coverage profile + total, the same numbers the CI coverage gate checks.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# API-surface snapshot gate: the public facade's godoc is committed at
# docs/api-surface.txt; any change to the exported API shows up as a diff
# here and must be regenerated deliberately (make api-surface) so facade
# changes are reviewed, never accidental.
api-check:
	@$(GO) doc -all . > .api-surface.latest
	@if ! diff -u docs/api-surface.txt .api-surface.latest; then \
		echo "api-check: public API surface changed; review the diff and run 'make api-surface' if intentional" >&2; \
		rm -f .api-surface.latest; exit 1; fi
	@rm -f .api-surface.latest
	@echo "api-check: public API surface matches docs/api-surface.txt"

# Regenerate the committed API-surface snapshot after an INTENTIONAL
# facade change; the diff belongs in the same review as the code.
api-surface:
	$(GO) doc -all . > docs/api-surface.txt

# End-to-end daemon smoke through the real binaries: start reprod, run the
# thin-client fleet and campaign CLIs cold and warm against it (warm must be
# 100% store hits), compare exports byte-for-byte with in-process runs, and
# drain with SIGTERM (see scripts/daemon-smoke.sh).
daemon-smoke:
	./scripts/daemon-smoke.sh

# Soak/stress harness (internal/soak, docs/soak.md): seeded randomized
# multi-tenant traffic against a live daemon plus the in-process engines,
# with leak, drift, and determinism invariants enforced after every traffic
# window and a host-provenance artifact archived under benchmarks/results.
# soak-smoke is the CI shape: >= 50 randomized ops under the race detector
# in ~10 s. soak is the long form — size it with the SOAK_* knobs below
# (wall time scales linearly with SOAK_WINDOWS); capture profiles with
# SOAK_PPROF=heap:cpu. Reproduce any failure by re-running with the seed
# the harness logs.
SOAK_SEED ?= 1
SOAK_WINDOWS ?= 60
SOAK_TENANTS ?= 4
SOAK_OPS ?= 6
SOAK_PPROF ?=
SOAK_RESULT_DIR ?= $(CURDIR)/benchmarks/results

soak-smoke:
	SOAK=1 SOAK_RESULT_DIR=$(SOAK_RESULT_DIR) SOAK_PPROF=$(SOAK_PPROF) \
		$(GO) test -race -run '^TestSoakSmoke$$' -count=1 -v ./internal/soak

soak:
	SOAK=1 SOAK_SEED=$(SOAK_SEED) SOAK_WINDOWS=$(SOAK_WINDOWS) \
		SOAK_TENANTS=$(SOAK_TENANTS) SOAK_OPS=$(SOAK_OPS) \
		SOAK_RESULT_DIR=$(SOAK_RESULT_DIR) SOAK_PPROF=$(SOAK_PPROF) \
		$(GO) test -race -run '^TestSoakSmoke$$' -count=1 -timeout 12h -v ./internal/soak

ci: build cross lint api-check race bench-harness bench-digests bench bench-json bench-ratio fuzz daemon-smoke soak-smoke cover

clean:
	rm -f bench.txt coverage.out BENCH_latest.json BENCH_throughput.json .api-surface.latest
	find . -name '*.test' -type f -delete
