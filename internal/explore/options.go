package explore

import (
	"fmt"

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
// (NewRandom, NewDelay, NewExhaustive, NewCoverage, or Spec.Options for
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
// Observe input exported over the wire (RunResult.Feedback decodes it):
// a fleet coordinator folds each remote run in with it (Fold.Add), so
// its strategy observes exactly what a local exploration's would. Off
// by default; a Fold without it strips the fields again, so a merged
// Result's canonical JSON never carries them.
func WithRunFeedback() Option {
	return func(c *config) { c.Feedback = true }
}

// Feedback decodes the record WithRunFeedback encodes: the strategy
// feedback of the run, as the local pool hands it to Observe straight
// from the run's chooser. The token trims trailing default picks, so
// its picks are padded back to one per recorded domain. A record that
// cannot be a real recording is an error, never a panic, so a fleet
// coordinator can check every run line a worker sends with it.
func (rr RunResult) Feedback() (Feedback, error) {
	sched, err := ParseToken(rr.Token)
	if err != nil {
		return Feedback{}, fmt.Errorf("run %d: %w", rr.Index, err)
	}
	if len(rr.Independent) != len(rr.Domains) {
		return Feedback{}, fmt.Errorf("run %d: %d independence flags for %d domains", rr.Index, len(rr.Independent), len(rr.Domains))
	}
	if len(sched.Picks) > len(rr.Domains) {
		return Feedback{}, fmt.Errorf("run %d: token has %d picks for %d domains", rr.Index, len(sched.Picks), len(rr.Domains))
	}
	picks := make([]int, len(rr.Domains))
	copy(picks, sched.Picks)
	for pos, d := range rr.Domains {
		if picks[pos] >= d {
			return Feedback{}, fmt.Errorf("run %d: pick %d outside domain %d at position %d", rr.Index, picks[pos], d, pos)
		}
	}
	return rr.feedback(picks), nil
}

// feedback is the run's Feedback given its full pick recording: every
// other field is read off the run.
func (rr RunResult) feedback(picks []int) Feedback {
	return Feedback{
		Index:       rr.Index,
		Token:       rr.Token,
		Picks:       picks,
		Domains:     rr.Domains,
		Independent: rr.Independent,
		Fingerprint: rr.Fingerprint,
		NewGraph:    rr.NewGraph,
		Warnings:    rr.Warnings,
		Err:         rr.Err,
		Ticks:       rr.Ticks,
	}
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

// Spec is an exploration's parameters as every front end carries them:
// the explore and fleet flags, a serve job body and a fleet plan.json,
// which embed it under these JSON names. Resolving Target, the worker
// count, metrics and progress stay with the front end.
type Spec struct {
	// Target is a registry spec, resolved through TargetByName.
	Target string `json:"target"`
	// Strategy is random (the default), delay, exhaustive or coverage.
	Strategy string `json:"strategy"`
	// Seed seeds the random, delay and coverage walks (Result.Seed).
	Seed int64 `json:"seed,omitempty"`
	// Runs bounds the schedules (0 means 32); exhaustive may stop early.
	Runs int `json:"runs"`
	// Kinds restricts the perturbed choice kinds, comma-separated
	// ("io-order,latency"; empty means DefaultKinds).
	Kinds string `json:"kinds,omitempty"`
	// DelayBound caps non-default picks per run for delay (0 means 2).
	DelayBound int `json:"delayBound,omitempty"`
	// POR enables partial-order reduction for exhaustive.
	POR bool `json:"por,omitempty"`
	// Chains attaches async causal chains to the warnings (WithChains).
	Chains bool `json:"chains,omitempty"`
	// DebugStacks runs the witness replays behind chains under
	// creation-stack capture (WithDebugStacks); no effect without Chains.
	DebugStacks bool `json:"debugStacks,omitempty"`
}

// Options validates the spec and returns its strategy, freshly built,
// with the options that explore it. A caller that plans runs itself
// (the fleet coordinator) drives the strategy through PlanRun.
func (s Spec) Options() (Planner, []Option, error) {
	if s.Runs < 0 {
		return nil, nil, fmt.Errorf("explore: negative run budget %d", s.Runs)
	}
	var strat Strategy
	switch s.Strategy {
	case "", StrategyRandom:
		strat = NewRandom(s.Seed)
	case StrategyDelay:
		strat = NewDelay(s.Seed, s.DelayBound)
	case StrategyExhaustive:
		strat = NewExhaustive(s.POR)
	case StrategyCoverage:
		strat = NewCoverage(s.Seed)
	default:
		return nil, nil, fmt.Errorf("explore: unknown strategy %q (random, delay, exhaustive, coverage)", s.Strategy)
	}
	kinds, err := parseKinds(s.Kinds)
	if err != nil {
		return nil, nil, err
	}
	opts := []Option{WithRuns(s.Runs), WithSeed(s.Seed), WithStrategy(strat), WithKinds(kinds...)}
	if s.Chains {
		opts = append(opts, WithChains())
	}
	if s.DebugStacks {
		opts = append(opts, WithDebugStacks())
	}
	return strat.(Planner), opts, nil
}
