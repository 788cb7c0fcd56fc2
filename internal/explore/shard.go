package explore

import "fmt"

// This file is the sharding surface of the exploration engine: the
// exported description of one contiguous slice of an exploration's runs
// (ShardSpec — the RunPlans its strategy's PlanRun produced for them),
// and the Strategy that plays exactly that list (ShardStrategy). A
// fleet coordinator drives one strategy across many asyncg serve
// workers and folds the shards' runs back in global run order through
// the same Fold a local exploration uses, so its output is
// byte-identical to a single-process Run at the same budget.

// ShardVersion is the version every ShardSpec must carry. It names the
// generator a seeded plan draws its picks from (a math/rand/v2 PCG
// through this package's intn) and the fingerprint format the runs
// report (ag2-). A worker on another generator or format would hand
// back runs that silently disagree with the coordinator's, so Validate
// refuses any other version.
const ShardVersion = 2

// ShardSpec describes one contiguous slice of an exploration: the runs
// at global indices [Start, Start+len(Plans)), each given as the
// RunPlan the exploration's strategy planned for it. The plans already
// carry every cross-run decision (the coverage draw against its corpus,
// the exhaustive frontier prefix), so a worker executes a shard with no
// strategy state at all.
type ShardSpec struct {
	// Version must be ShardVersion.
	Version int `json:"version"`
	// Start is the global run index of the shard's first run.
	Start int `json:"start"`
	// Plans holds one plan per run, in run order.
	Plans []RunPlan `json:"plans"`
}

// Validate checks a decoded spec before anything executes it: the
// current version, a non-negative start, at least one plan, and every
// plan within the bounds its PickFunc relies on.
func (s ShardSpec) Validate() error {
	if s.Version != ShardVersion {
		return fmt.Errorf(`explore: shard "version" is %d, this build speaks %d`, s.Version, ShardVersion)
	}
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
