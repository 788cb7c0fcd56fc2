package explore

import (
	"testing"
)

// TestRunnerReuseMatchesFresh is the Runner contract's observational
// half: a pool worker that keeps one runner alive and interleaves
// Reset+Run across many schedules must produce byte-identical Results
// to fresh-session-per-run execution, at every worker count. The two
// variants are forced by stripping the Target down to one path each —
// Run-only falls back to funcRunner (cold runtime every schedule),
// NewRunner-only reuses pooled loop/graph/detector state. Run under
// -race this also exercises the handoff of pooled choosers and RNGs
// between the coordinator and worker goroutines. The AcmeAir legs cover
// the sealed sample database: a reused runner restores it on Reset
// where a fresh runtime loads it anew, and every schedule that books a
// flight writes to it.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	so := caseTarget(t, "SO-17894000")
	acme := AcmeAirTarget(8, 2, 1)

	// Options are rebuilt per exploration: strategies like coverage are
	// stateful objects, and sharing one instance across explorations
	// would leak corpus from run to run.
	configs := []struct {
		name    string
		target  Target
		workers []int
		opts    func() []Option
	}{
		{"random", so, []int{1, 4, 8}, func() []Option { return []Option{WithSeed(5), WithRuns(24)} }},
		{"random-metrics", so, []int{1, 4, 8}, func() []Option { return []Option{WithSeed(5), WithRuns(12), WithRunMetrics()} }},
		{"delay", so, []int{1, 4, 8}, func() []Option { return []Option{WithStrategy(NewDelay(9, 2)), WithRuns(16)} }},
		{"coverage", so, []int{1, 4, 8}, func() []Option { return []Option{WithStrategy(NewCoverage(11)), WithRuns(24)} }},
		{"acmeair-exhaustive-por", acme, []int{1, 2}, func() []Option { return []Option{WithStrategy(NewExhaustive(true)), WithRuns(32)} }},
		{"acmeair-coverage", acme, []int{1, 2}, func() []Option { return []Option{WithStrategy(NewCoverage(3)), WithRuns(16)} }},
	}
	for _, tc := range configs {
		fresh := tc.target
		fresh.NewRunner = nil // one-shot fallback only
		reused := tc.target
		reused.Run = nil // pooled runner only
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, workers := range tc.workers {
				freshOpts := append(tc.opts(), WithWorkers(workers))
				reuseOpts := append(tc.opts(), WithWorkers(workers))
				freshJSON := resultJSON(t, mustRun(t, fresh, freshOpts...))
				reuseJSON := resultJSON(t, mustRun(t, reused, reuseOpts...))
				if reuseJSON != freshJSON {
					t.Fatalf("workers=%d: reused-runner result differs from fresh-session result\nfresh:  %s\nreused: %s",
						workers, freshJSON, reuseJSON)
				}
				if want == "" {
					want = freshJSON
				} else if freshJSON != want {
					t.Fatalf("workers=%d: result differs from workers=1\nwant: %s\ngot:  %s", workers, want, freshJSON)
				}
			}
		})
	}
}

// TestRunnerReuseFleetMerge is the distributed version of the same
// contract: shard a seeded exploration into windows, run every shard on
// reused runners at varying worker counts, stitch the runs back in
// global order exactly the way the fleet coordinator's absorb does
// (re-index, recompute NewGraph against the global census, strip
// wire-only feedback), and Finalize. The merged Result must be
// byte-identical to the single-process exploration.
func TestRunnerReuseFleetMerge(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	reused := tg
	reused.Run = nil

	const total, seed = 16, 3
	full := mustRun(t, tg, WithSeed(seed), WithRuns(total))
	want := resultJSON(t, full)

	merged := &Result{
		Target:    full.Target,
		Strategy:  full.Strategy,
		Seed:      full.Seed,
		Requested: full.Requested,
	}
	seen := make(map[string]bool)
	workerCycle := []int{1, 4, 8}
	for i, w := range shardWindows(total, 5) {
		spec := ShardSpec{Strategy: StrategyRandom, Seed: seed, Start: w[0], Runs: w[1]}
		strat, err := ShardStrategy(spec)
		if err != nil {
			t.Fatalf("ShardStrategy(%+v): %v", spec, err)
		}
		shard := mustRun(t, reused, WithStrategy(strat), WithRuns(spec.Runs),
			WithWorkers(workerCycle[i%len(workerCycle)]))
		for j, rr := range shard.Runs {
			rr.Index = w[0] + j
			rr.NewGraph = false
			if !seen[rr.Fingerprint] {
				seen[rr.Fingerprint] = true
				rr.NewGraph = true
			}
			rr.NewGraphs = len(seen)
			rr.Domains, rr.Independent = nil, nil
			merged.Runs = append(merged.Runs, rr)
		}
	}
	Finalize(reused, merged)
	if got := resultJSON(t, merged); got != want {
		t.Errorf("fleet-style merge on reused runners differs from single-process run\nwant: %s\ngot:  %s", want, got)
	}
}

// TestAcmeAirRunnerSteadyStateAllocs gates the runner contract's
// allocation claim on the heaviest target: once an acmeAirRunner is
// warm, Reset+Run must recycle the session's arenas instead of
// rebuilding them, and must restore the sealed sample database instead
// of loading it again. App wiring and the workload driver still allocate
// on every run whichever path executes, so the gate is relative: the
// warm path measures ~0.35 of a fresh session's allocations on this
// workload. Reloading the sample data per run pushes the ratio to ~0.75,
// a Reset that stops recycling to ~1.0.
func TestAcmeAirRunnerSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("acmeair steady-state allocation gate in -short mode")
	}
	tg := AcmeAirTarget(20, 3, 1)
	runner := tg.NewRunner()
	for i := 0; i < 4; i++ { // warm the pools past cold-start growth
		runner.Reset()
		if _, err := runner.Run(); err != nil {
			t.Fatalf("warmup run %d: %v", i, err)
		}
	}
	steady := testing.AllocsPerRun(5, func() {
		runner.Reset()
		if _, err := runner.Run(); err != nil {
			t.Fatalf("measured run: %v", err)
		}
	})
	fresh := testing.AllocsPerRun(3, func() {
		if _, err := tg.NewRunner().Run(); err != nil {
			t.Fatalf("fresh run: %v", err)
		}
	})
	if ratio := steady / fresh; ratio > 0.45 {
		t.Errorf("steady-state AllocsPerRun = %.0f vs fresh-session %.0f (ratio %.2f, want <= 0.45): runner reuse regressed toward fresh-session allocation", steady, fresh, ratio)
	}
}
