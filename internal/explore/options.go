package explore

import (
	"asyncg/internal/eventloop"
)

// Option configures an exploration, mirroring the asyncg.New functional
// options. Options are applied in order; later options win. The zero
// configuration (no options) explores 32 random schedules with seed 0 —
// see config for the per-field defaults.
type Option func(*config)

// WithRuns bounds the number of executed schedules (the exhaustive
// strategy treats it as a budget and may stop earlier).
func WithRuns(n int) Option {
	return func(c *config) { c.Runs = n }
}

// WithSeed sets the base seed recorded in Result.Seed and consumed by
// the default strategy (random); run i derives its generator from
// seed+i, so explorations are reproducible. A strategy installed with
// WithStrategy owns its seed — pass it to the constructor instead.
func WithSeed(seed int64) Option {
	return func(c *config) { c.Seed = seed }
}

// WithStrategy installs the schedule-space walk — a built-in strategy
// (NewRandom, NewDelay, NewExhaustive, NewCoverage, or StrategyFor for
// name-based construction) or any custom Strategy implementation.
// Strategy instances are stateful and single-use: build a fresh one per
// exploration. Without this option the engine uses NewRandom(seed).
func WithStrategy(s Strategy) Option {
	return func(c *config) { c.Strategy = s }
}

// WithKinds restricts which choice-point classes are perturbed; without
// it DefaultKinds applies.
func WithKinds(kinds ...eventloop.ChoiceKind) Option {
	return func(c *config) { c.Kinds = kinds }
}

// WithWorkers sets how many schedules execute concurrently (0 means
// GOMAXPROCS, 1 strictly sequential). The Result is byte-identical for
// any worker count.
func WithWorkers(n int) Option {
	return func(c *config) { c.Workers = n }
}

// WithProgress registers a callback that receives every completed
// RunResult in run-index order, as soon as all earlier runs have also
// completed — the hook the analysis server and the CLI use to stream
// NDJSON run lines while the exploration is still going. The callback
// runs on whichever worker handed in the run that completed the
// prefix — a spawned worker goroutine or Run's caller — and never
// concurrently with itself. It runs under the pool's lock, so it must
// not block for long: a slow callback holds back the planning of new
// runs, though never the runs already executing.
func WithProgress(fn func(RunResult)) Option {
	return func(c *config) { c.Progress = fn }
}

// WithRunFeedback copies each run's choice-point record — the domain
// size and independence flag of every pick — into RunResult.Domains and
// RunResult.Independent. Together with the token this is a strategy's
// Observe input exported over the wire: a fleet coordinator rebuilds
// each remote run's Feedback from it, so its strategy observes exactly
// what a local exploration's would. Off by default; the fields are
// stripped again before merged results are compared, so enabling it
// never changes a Result's canonical JSON.
func WithRunFeedback() Option {
	return func(c *config) { c.Feedback = true }
}

// WithChains attaches async causal chains to the classified warnings:
// after aggregation, each distinct witness token is replayed once and
// every warning's chain is walked backwards on the replayed graph
// (WarningStat.Chain, rendered by the CLI's -chains flag and carried
// additively through NDJSON and the serve/fleet surfaces). See the
// package comment's "Debug options: one semantics table" for how it
// relates to [WithDebugStacks] and [asyncg.WithDebugStacks].
func WithChains() Option {
	return func(c *config) { c.Chains = true }
}

// WithDebugStacks runs the witness replays behind [WithChains] under
// [asyncg.WithDebugStacks]: the graph builder captures the Go call
// stack at each promise/emitter creation, trigger, and registration,
// and chain hops carry the frames. The explored schedules themselves
// run without capture — frames only ever surface on chains — so the
// cost is one symbolizing replay per distinct witness, and without
// WithChains the option has no effect. See the package comment's
// "Debug options: one semantics table" for scope, cost, and
// composition with [WithChains].
func WithDebugStacks() Option {
	return func(c *config) { c.DebugStacks = true }
}

// WithRunMetrics attaches the trace metrics registry to every run and
// aggregates the per-run snapshots into Result.Metrics (merge order is
// irrelevant — see trace.Snapshot.Merge — so the aggregate is identical
// for any worker count). The registry is an observing probe only; it
// never perturbs scheduling.
func WithRunMetrics() Option {
	return func(c *config) { c.RunMetrics = true }
}
