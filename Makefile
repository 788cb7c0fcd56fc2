GO ?= go

.PHONY: verify build vet fmt-check test trace-demo explore-smoke explore-coverage race-explore fuzz-smoke fig6-smoke bench-record bench-gate bench-smoke serve-smoke race-server fleet-smoke race-fleet docs-check

# Tier-1 verify: build, vet, formatting, tests.
verify: build vet fmt-check test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Bounded schedule exploration of two case-study bugs (CI smoke).
# SO-17894000 must yield at least one schedule-dependent ("sometimes")
# warning with a witness token; GH-npm-12754 must stay deterministic
# ("always") under the same perturbations.
explore-smoke:
	$(GO) run ./cmd/asyncg explore -case SO-17894000 -runs 16 -seed 1 -expect-sometimes
	$(GO) run ./cmd/asyncg explore -case GH-npm-12754 -runs 8 -seed 1

# Coverage-guided exploration smoke (CI): the fingerprint-corpus
# strategy on the AcmeAir workload at a fixed seed must keep
# discovering new graph shapes — the run is fully deterministic, so the
# floor of 8 distinct fingerprints is a hard assertion, not a hope.
explore-coverage:
	$(GO) run ./cmd/asyncg explore -acmeair -requests 20 -clients 3 -seed 1 -strategy coverage -runs 24 -min-new-graphs 8

# Parallel-exploration determinism under the race detector: 1-, 2-, and
# 8-worker explores must produce byte-identical Result JSON. The second
# pass repeats the tests that drive the worker pool's shared state
# (planning, hand-in, cancellation, panic re-raise, progress ordering)
# ten times, since one pass sees one interleaving.
race-explore:
	$(GO) test -race ./internal/explore/...
	$(GO) test -race -count=10 -run 'TestParallel|TestPanic|TestRunCancel|TestRunnerReuse|TestStrategyPanicReraised|TestProgressSerialized' ./internal/explore/

# Short native-fuzzing passes over two decoders. Shard wire specs must
# validate or fail cleanly, never panic, and accepted ones must run one
# schedule per plan with replayable tokens. Async Graph logs must be
# rejected or render as DOT and SVG, and re-serialize stably; their
# seeds are the case corpus' graphs, some over 100 KB, so minimizing a
# new input is capped at 2 s to leave the budget for fuzzing. Crashers
# land in the package's testdata/fuzz/ and are committed as regression
# seeds.
fuzz-smoke:
	$(GO) test ./internal/explore -run '^$$' -fuzz '^FuzzShardSpec$$' -fuzztime 10s
	$(GO) test ./internal/asyncgraph -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 10s -fuzzminimizetime 2s

# End-to-end smoke of `asyncg fig6` (both figures on a small load) and
# of a case's graph log piped through `asyncg viz` as DOT and as SVG.
fig6-smoke:
	./scripts/fig6_smoke.sh

# End-to-end smoke of the asyncg serve analysis service: boot, health,
# a synchronous explore job, NDJSON stream replay, /metrics, and a
# clean SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end smoke of the distributed exploration coordinator: two
# local serve workers, a coverage exploration of AcmeAir sharded across
# them (merged NDJSON must be byte-identical to a single-process
# explore), and a kill -9'd coordinator resuming from its journal
# without re-running completed shards.
fleet-smoke:
	./scripts/fleet_smoke.sh

# Fleet coordinator behavior under the race detector: merge equivalence
# for every strategy at varying shard widths, journal round-trip,
# resume-after-cancel, and dead-worker reassignment.
race-fleet:
	$(GO) test -race -count=1 ./internal/fleet/...

# Analysis-service behavior under the race detector: the 200-submission
# overflow load test (queue capacity 8 → 429 + Retry-After), per-job
# deadlines, client-disconnect and DELETE cancellation, graceful drain,
# hard-stop, and goroutine-leak checks.
race-server:
	$(GO) test -race -count=1 ./internal/server/...

# Record the sequential-vs-parallel exploration benchmarks into
# BENCH_explore.json (ns/op, allocs/op, schedules/sec, speedup).
# See EXPERIMENTS.md §Recording benchmarks for the schema.
bench-record:
	$(GO) run ./cmd/asyncg bench -out BENCH_explore.json

# Allocation gate: re-measure the exploration benchmarks quickly (3
# iterations suffice — allocs/op is iteration-stable, unlike ns/op on a
# shared box) and fail if any benchmark's allocs/op regressed more than
# the tolerance past the committed BENCH_explore.json. The fresh
# measurement lands in BENCH_explore.ci.json for CI to upload.
bench-gate:
	$(GO) run ./cmd/asyncg bench -benchtime 3x -out BENCH_explore.ci.json -gate BENCH_explore.json

# The benchmark module's own correctness checks (about 5 s): served
# results byte-identical to direct runs, 1- vs 2-worker identity, and
# fingerprint playback. bench/ is its own module, so `make test` does
# not reach it.
bench-smoke:
	cd bench && $(GO) test -short .

# Documentation checks: every exported Go declaration carries a doc
# comment (cmd/doclint, stdlib-only) and every relative link in the
# user-facing markdown (README, ARCHITECTURE, DESIGN, EXPERIMENTS,
# ROADMAP, docs/DEBUGGING) resolves to a file on disk.
docs-check:
	./scripts/docs_check.sh

# Regenerate the golden trace fixtures from the deterministic program in
# internal/trace/exporter_test.go, then check they still pass.
trace-demo:
	$(GO) test ./internal/trace -run Golden -update
	$(GO) test ./internal/trace
	@echo "golden traces regenerated under internal/trace/testdata/"
