GO ?= go

.PHONY: verify build vet fmt-check test cross trace-demo explore-smoke explore-coverage race-explore fuzz-smoke fig6-smoke bench-smoke serve-smoke race-server fleet-smoke race-fleet docs-check

# Tier-1 verify: build, vet, formatting, tests. The tests include the
# allocation gate, internal/explore's TestAllocBudget.
verify: build vet fmt-check test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Other architectures. internal/loc reads call sites off the
# frame-pointer chain through an assembly stub on amd64 and arm64 and
# unwinds the stack everywhere else: vet's asmdecl check reads the arm64
# stub. The whole suite runs on 386 (386 binaries run on an amd64 host):
# it takes the unwinding path, keeps the module and its tests building
# where int is 32 bits, and checks the golden corpus on a second
# architecture.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./...

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
# ten times, since one pass sees one interleaving. The third pass does
# the same for the call-site cache that every worker reads and fills.
race-explore:
	$(GO) test -race ./internal/explore/...
	$(GO) test -race -count=10 -run 'TestParallel|TestPanic|TestRunCancel|TestRunnerReuse|TestStrategyPanicReraised|TestProgressSerialized' ./internal/explore/
	$(GO) test -race -count=10 ./internal/loc

# Short native-fuzzing passes over five decoders, the graph fingerprint,
# the replay contract, the exhaustive frontier and two equivalences in
# the AcmeAir substrate. Schedule tokens that parse must re-encode to
# the same picks. Shard wire specs must validate or fail cleanly, never
# panic, and accepted ones must run one schedule per plan with
# replayable tokens. Journaled shard files must be refused or hold one valid,
# in-order run per plan. Job bodies must come out as an accepted job or
# a 4xx, never a panic or a 5xx. Async Graph logs must be rejected or
# render as DOT and SVG, and re-serialize stably; their seeds are the
# case corpus' graphs, some over 100 KB. Fingerprints must not move when
# nodes are renumbered or edges reordered, and must move when one node
# or edge attribute changes. A schedule token on a case-study target
# must give the same fingerprint, warnings, run error, tick count and
# causal chains on a fresh runner, on a reset runner and through Replay.
# On a synthetic choice tree, the exhaustive strategy must plan every run
# as the reference enumeration of copied prefixes does, with one or two
# runs in flight, and report the same Exhausted flag and POR census.
# On a sealed database, every query after any sequence of inserts,
# updates, removes and resets must return what a full scan returns, in
# the same order; AcmeAir's response encoder must write json.Marshal's
# bytes.
# The fuzzer minimizes every new interesting input for up to a minute,
# running no new inputs meanwhile, so on a 10 s budget one large input
# can stall a target for most of its run; every line caps minimizing at
# 2 s to leave the budget for fuzzing. Crashers land in the package's
# testdata/fuzz/ and are committed as regression seeds.
fuzz-smoke:
	$(GO) test ./internal/explore -run '^$$' -fuzz '^FuzzParseToken$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/explore -run '^$$' -fuzz '^FuzzShardSpec$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/explore -run '^$$' -fuzz '^FuzzReplayFreshVsReused$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/explore -run '^$$' -fuzz '^FuzzExhaustiveFrontier$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/fleet -run '^$$' -fuzz '^FuzzShardFile$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/asyncgraph -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/asyncgraph -run '^$$' -fuzz '^FuzzFingerprint$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/mongosim -run '^$$' -fuzz '^FuzzSealedFind$$' -fuzztime 10s -fuzzminimizetime 2s
	$(GO) test ./internal/acmeair -run '^$$' -fuzz '^FuzzResponseJSON$$' -fuzztime 10s -fuzzminimizetime 2s

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
# resume-after-cancel, and dead- and draining-worker reassignment. The
# second pass repeats the tests whose outcome depends on how dispatches
# interleave (which worker a retry lands on, when a cancel hits) twenty
# times, since one pass sees one interleaving.
race-fleet:
	$(GO) test -race -count=1 ./internal/fleet/...
	$(GO) test -race -count=20 -run 'TestFleetDeadWorkerReassignment|TestFleetDrainingWorkerReassignment|TestFleetMatchesSingleProcess|TestFleetResume' ./internal/fleet/

# Analysis-service behavior under the race detector: the 200-submission
# overflow load test (queue capacity 8 → 429 + Retry-After), per-job
# deadlines, client-disconnect and DELETE cancellation, graceful drain,
# hard-stop, and goroutine-leak checks.
race-server:
	$(GO) test -race -count=1 ./internal/server/...

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
