package explore

import "fmt"

// This file is the sharding surface of the exploration engine: the
// exported description of one contiguous slice of an exploration's runs
// (ShardSpec — the RunPlans its strategy's PlanRun produced for them),
// the Strategy that plays exactly that list (ShardStrategy), and the
// merge primitive (Finalize) that rebuilds a Result's aggregate
// sections after shard results have been stitched back into global run
// order. Together they let a fleet coordinator drive one strategy
// across many asyncg serve workers and still produce output
// byte-identical to a single-process Run at the same budget.

// ShardSpec describes one contiguous slice of an exploration: the runs
// at global indices [Start, Start+len(Plans)), each given as the
// RunPlan the exploration's strategy planned for it. The plans already
// carry every cross-run decision (the coverage draw against its corpus,
// the exhaustive frontier prefix), so a worker executes a shard with no
// strategy state at all.
type ShardSpec struct {
	// Start is the global run index of the shard's first run.
	Start int `json:"start"`
	// Plans holds one plan per run, in run order.
	Plans []RunPlan `json:"plans"`
}

// Validate checks a decoded spec before anything executes it: a
// non-negative start, at least one plan, and every plan within the
// bounds its PickFunc relies on.
func (s ShardSpec) Validate() error {
	if s.Start < 0 {
		return fmt.Errorf("explore: negative shard start %d", s.Start)
	}
	if len(s.Plans) == 0 {
		return fmt.Errorf("explore: shard has no plans")
	}
	for i, p := range s.Plans {
		if err := p.validate(); err != nil {
			return fmt.Errorf("explore: shard plan %d: %w", i, err)
		}
	}
	return nil
}

// ShardStrategy builds the Strategy that plays the spec's plans: local
// run j executes Plans[j], and planning ends after the last one. It is
// feedback-free by construction — all cross-run feedback (coverage
// corpus growth, exhaustive frontier expansion, NewGraph flags) belongs
// to the coordinator that planned the shard — so a shard's runs are
// identical at any worker count.
func ShardStrategy(spec ShardSpec) (Strategy, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return shardStrategy(spec.Plans), nil
}

// shardStrategy plays one ShardSpec's plans (see ShardStrategy).
type shardStrategy []RunPlan

func (shardStrategy) Name() string { return "shard" }

func (s shardStrategy) Plan(j int) (PickFunc, PlanState) {
	if j >= len(s) {
		return nil, PlanDone
	}
	return s[j].PickFunc(), PlanReady
}

func (shardStrategy) Observe(Feedback) {}

// Finalize re-derives a Result's aggregate sections — the fingerprint
// census, the warning and category classification, and NewGraphs — from
// its Runs, replacing whatever was there. It is the merge primitive of
// the fleet coordinator: after shard results are stitched back into
// global run order (indices rewritten, NewGraph flags recomputed against
// the global fingerprint set), Finalize rebuilds exactly the aggregates
// a single-process Run would have produced, because aggregation is a
// pure function of the ordered run records and the target's Expect set.
func Finalize(t Target, res *Result) {
	res.Fingerprints, res.Warnings, res.Categories = nil, nil, nil
	aggregate(t, res)
	res.NewGraphs = len(res.Fingerprints)
}
