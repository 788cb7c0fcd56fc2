package explore

import "asyncg/internal/trace"

// Fold assembles an exploration's Result from its runs, handed in
// strictly in run-index order. The local worker pool and the fleet
// coordinator both build their Result with it, so a fleet merge is
// byte-identical to one process. Per run it takes the NewGraph census,
// hands the strategy the run's Feedback, stamps the strategy's coverage
// stats, appends the run, merges its metrics and calls Progress. A Fold
// is not safe for concurrent use.
type Fold struct {
	t    Target
	cfg  *config
	res  *Result
	seen map[string]bool // fingerprints, in run-index order
}

// NewFold starts the Result of exploring t under opts, the options Run
// takes. The strategy they install receives every run's Feedback, so it
// must be the instance that planned the runs.
func NewFold(t Target, opts ...Option) *Fold {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg = cfg.withDefaults()
	return &Fold{t: t, cfg: &cfg, seen: make(map[string]bool),
		res: &Result{Target: t.Name, Strategy: cfg.Strategy.Name(), Seed: cfg.Seed, Requested: cfg.Runs}}
}

// Add folds in the next run in index order. rr carries the record
// WithRunFeedback encodes, which RunResult.Feedback must decode, or Add
// fails and leaves the Result unchanged. A non-nil snap is merged into
// Result.Metrics under WithRunMetrics; merge order is irrelevant, so a
// fleet shard's snapshot may come with any one of its runs.
func (f *Fold) Add(rr RunResult, snap *trace.Snapshot) error {
	fb, err := rr.Feedback()
	if err != nil {
		return err
	}
	f.add(rr, fb.Picks, snap)
	return nil
}

// add is Add for a run whose full pick recording is at hand — the local
// pool's, straight from the run's chooser.
func (f *Fold) add(rr RunResult, picks []int, snap *trace.Snapshot) {
	rr.NewGraph = !f.seen[rr.Fingerprint]
	f.seen[rr.Fingerprint] = true
	rr.NewGraphs = len(f.seen)
	f.cfg.Strategy.Observe(rr.feedback(picks))
	if cr, ok := f.cfg.Strategy.(CoverageReporter); ok {
		stats := cr.CoverageStats()
		rr.CorpusSize, rr.PrunedPicks = stats.CorpusSize, stats.PrunedPicks
	}
	if f.cfg.Feedback {
		// Copies: the pool recycles the recording once add returns.
		rr.Domains = append([]int(nil), rr.Domains...)
		rr.Independent = append([]bool(nil), rr.Independent...)
	} else {
		rr.Domains, rr.Independent = nil, nil
	}
	f.res.Runs = append(f.res.Runs, rr)
	if snap != nil && f.cfg.RunMetrics {
		if f.res.Metrics == nil {
			f.res.Metrics = &trace.Snapshot{}
		}
		f.res.Metrics.Merge(snap)
	}
	if f.cfg.Progress != nil {
		f.cfg.Progress(rr)
	}
}

// Finish completes the Result after the last run; err is how the
// exploration ended. The strategy's Exhausted flag and chains need a
// complete exploration (err == nil); the coverage stats and the
// aggregate sections (Finalize) cover the runs folded so far.
func (f *Fold) Finish(err error) *Result {
	res := f.res
	if sr, ok := f.cfg.Strategy.(SpaceReporter); ok && err == nil {
		res.Exhausted = sr.Exhausted()
	}
	if cr, ok := f.cfg.Strategy.(CoverageReporter); ok {
		stats := cr.CoverageStats()
		res.CorpusSize, res.PrunedPicks = stats.CorpusSize, stats.PrunedPicks
	}
	Finalize(f.t, res)
	if err == nil && f.cfg.Chains {
		AttachChains(f.t, res, f.cfg.DebugStacks)
	}
	return res
}
