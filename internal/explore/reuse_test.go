package explore

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"asyncg"
	"asyncg/internal/asyncgraph"
	"asyncg/internal/provenance"
)

// TestRunnerReuseMatchesFresh is the Runner contract's observational
// half: a pool worker that keeps one runner alive and interleaves
// Reset+Run across many schedules must produce byte-identical Results
// to fresh-session-per-run execution, at every worker count. The two
// variants are forced by stripping the Target down to one path each —
// Run-only falls back to funcRunner (cold runtime every schedule),
// NewRunner-only reuses pooled loop/graph/detector state. Run under
// -race this also exercises the handoff of pooled choosers and walks
// between worker goroutines through the pool's lock. The AcmeAir legs cover
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
// reused runners at varying worker counts, and fold the runs back in
// global order exactly the way the fleet coordinator's absorb does
// (re-index, then Fold.Add with the run's WithRunFeedback record). The
// merged Result must be byte-identical to the single-process
// exploration.
func TestRunnerReuseFleetMerge(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	reused := tg
	reused.Run = nil

	const total, seed = 16, 3
	full := mustRun(t, tg, WithSeed(seed), WithRuns(total))
	want := resultJSON(t, full)

	workerCycle := []int{1, 4, 8}
	planner, opts, err := Spec{Strategy: StrategyRandom, Seed: seed, Runs: total}.Options()
	if err != nil {
		t.Fatal(err)
	}
	fold := NewFold(reused, opts...)
	for i, w := range shardWindows(total, 5) {
		spec := ShardSpec{Version: ShardVersion, Start: w[0]}
		for j := 0; j < w[1]; j++ {
			p, _ := planner.PlanRun(w[0] + j)
			spec.Plans = append(spec.Plans, p)
		}
		strat, err := ShardStrategy(spec)
		if err != nil {
			t.Fatalf("ShardStrategy(%+v): %v", spec, err)
		}
		shard := mustRun(t, reused, WithStrategy(strat), WithRuns(len(spec.Plans)),
			WithWorkers(workerCycle[i%len(workerCycle)]), WithRunFeedback())
		for j, rr := range shard.Runs {
			rr.Index = w[0] + j
			if err := fold.Add(rr, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	merged := fold.Finish(nil)
	if got := resultJSON(t, merged); got != want {
		t.Errorf("fleet-style merge on reused runners differs from single-process run\nwant: %s\ngot:  %s", want, got)
	}
}

// drainAcmeAirIdle empties the AcmeAir idle list, so that the next
// runtime handed in is the only idle one.
func drainAcmeAirIdle() {
	acmeAirIdle.mu.Lock()
	defer acmeAirIdle.mu.Unlock()
	clear(acmeAirIdle.lists)
}

// idleAcmeAirRuntimes counts the idle runtimes of one structure.
func idleAcmeAirRuntimes(metrics bool) int {
	acmeAirIdle.mu.Lock()
	defer acmeAirIdle.mu.Unlock()
	return len(acmeAirIdle.lists[metrics])
}

// TestRunnerReuseConcurrentExplorations holds the AcmeAir idle list to
// the runner contract while explorations share it at once. Two streams
// of explorations run side by side; they differ in load, strategy and
// run-metrics setting, and each switches its metrics setting every
// exploration, so runtimes pass between loads and between streams in
// whatever order the goroutines interleave. Every exploration must be
// byte-identical to the same exploration on a fresh runtime per
// schedule.
func TestRunnerReuseConcurrentExplorations(t *testing.T) {
	streams := []struct {
		target  Target
		opts    func() []Option
		metrics []bool
	}{
		{AcmeAirTarget(8, 2, 1), func() []Option { return []Option{WithStrategy(NewExhaustive(true)), WithRuns(8)} }, []bool{false, true, false}},
		{AcmeAirTarget(6, 3, 4), func() []Option { return []Option{WithStrategy(NewCoverage(7)), WithRuns(8)} }, []bool{true, false, true}},
	}
	optsFor := func(opts []Option, metrics bool) []Option {
		opts = append(opts, WithWorkers(2))
		if metrics {
			opts = append(opts, WithRunMetrics())
		}
		return opts
	}
	want := make([]map[bool]string, len(streams))
	for i, s := range streams {
		fresh := s.target
		fresh.NewRunner = nil
		want[i] = make(map[bool]string)
		for _, metrics := range []bool{false, true} {
			want[i][metrics] = resultJSON(t, mustRun(t, fresh, optsFor(s.opts(), metrics)...))
		}
	}
	var wg sync.WaitGroup
	for i, s := range streams {
		reused := s.target
		reused.Run = nil
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, metrics := range s.metrics {
				res, err := Run(context.Background(), reused, optsFor(s.opts(), metrics)...)
				if err != nil {
					t.Errorf("%s, exploration %d: %v", s.target.Name, k, err)
					return
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Error(err)
					return
				}
				if got := string(b); got != want[i][metrics] {
					t.Errorf("%s, exploration %d (metrics %v) on shared runtimes differs from fresh runtimes\nfresh:  %s\nshared: %s",
						s.target.Name, k, metrics, want[i][metrics], got)
				}
			}
		}()
	}
	wg.Wait()
}

// TestAcmeAirRunnerSteadyStateAllocs gates the runner contract's
// allocation claim on the heaviest target: once an acmeAirRunner is
// warm, Reset+Run must recycle the session's arenas instead of
// rebuilding them, and must restore the sealed sample database instead
// of loading it again. App wiring and the workload driver still allocate
// on every run whichever path executes, so the gate is relative: the
// warm path measures ~0.35 of a fresh session's allocations on this
// workload. Reloading the sample data per run pushes the ratio to ~0.75,
// a Reset that stops recycling to ~1.0. The fresh leg goes through
// Target.Run, which builds its runtime from scratch: a runner from
// NewRunner would take a warm one from the idle list.
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
		if _, err := tg.Run(); err != nil {
			t.Fatalf("fresh run: %v", err)
		}
	})
	if ratio := steady / fresh; ratio > 0.45 {
		t.Errorf("steady-state AllocsPerRun = %.0f vs fresh-session %.0f (ratio %.2f, want <= 0.45): runner reuse regressed toward fresh-session allocation", steady, fresh, ratio)
	}
}

// replayOutcome is everything FuzzReplayFreshVsReused compares across
// the three ways of running one schedule: the run record the engine
// keeps, each warning's key and async causal chain, in report order,
// and the whole Async Graph as Graph.WriteJSON writes it, every node's
// label and location included.
type replayOutcome struct {
	Run    RunResult
	Keys   []string
	Chains [][]asyncgraph.ChainHop
	Graph  string
}

// firstDiff names the first line where two graph logs differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q, not %q", i+1, bl[i], al[i])
		}
	}
	return fmt.Sprintf("line %d: %d lines, not %d", min(len(al), len(bl))+1, len(bl), len(al))
}

// graphJSON is the report's graph as Graph.WriteJSON writes it.
func graphJSON(t testing.TB, report *asyncg.Report) string {
	if report == nil || report.Graph == nil {
		return ""
	}
	var b strings.Builder
	if err := report.Graph.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// runPicks plays picks back on a runner the way Replay plays a token
// back, summarizes the run as Replay does, and walks each warning's
// chain with provenance.NewWalker as Replay does.
func runPicks(t testing.TB, r Runner, token string, picks []int) replayOutcome {
	report, runErr := r.Run(asyncg.WithScheduler(newChooser(AllKinds(), playbackNext(picks))))
	out := replayOutcome{Run: RunResult{Token: token}, Graph: graphJSON(t, report)}
	newIntern().summarize(&out.Run, report, runErr)
	if report == nil || report.Graph == nil {
		return out
	}
	pw := provenance.NewWalker(report.Graph)
	for _, w := range report.Warnings {
		out.Keys = append(out.Keys, warnKey(w))
		out.Chains = append(out.Chains, pw.Chain(w.Node))
	}
	return out
}

// FuzzReplayFreshVsReused fuzzes the determinism contract behind every
// witness token: a schedule token on a case-study or AcmeAir target must
// give the same fingerprint, sorted warning keys, run error, tick count,
// per-warning async causal chain and Async Graph (every node, edge,
// label and location) on a fresh runtime, on a reused one, and through
// Replay. The reused runtime first runs a different schedule, and then
// is Reset: a case study's runner replays the token on its own session,
// while an AcmeAir runtime first serves a different load and reaches the
// token's runner through the idle list, as it does between explorations.
// The input is an index into the case:* registry targets and the golden
// corpus's AcmeAir targets, and a token; the seeds are the witness and
// counter-witness tokens of the golden corpus, and the tokens of its
// AcmeAir entries' fingerprint census.
func FuzzReplayFreshVsReused(f *testing.F) {
	var names []string
	for _, info := range Targets() {
		if strings.HasPrefix(info.Name, "case:") {
			names = append(names, info.Name)
		}
	}
	golden := loadGoldenMatrix(f)
	for _, e := range golden {
		if strings.HasPrefix(e.Target, "acmeair") && !slices.Contains(names, e.Target) {
			names = append(names, e.Target)
		}
	}
	targets := make([]Target, len(names))
	for i, name := range names {
		tg, err := TargetByName(name)
		if err != nil {
			f.Fatal(err)
		}
		targets[i] = tg
	}
	// otherLoad is the load an AcmeAir runtime serves before the token's
	// runner takes it; no golden target runs it.
	otherLoad := AcmeAirTarget(5, 3, 2)
	type seed struct {
		idx   int
		token string
	}
	seen := make(map[seed]bool)
	add := func(target, tok string) {
		idx := slices.Index(names, target)
		if idx < 0 {
			f.Fatalf("golden target %s is not among the fuzzed targets", target)
		}
		if s := (seed{idx, tok}); tok != "" && !seen[s] {
			seen[s] = true
			f.Add(uint(idx), tok)
		}
	}
	results := make([]Result, len(golden))
	for i, e := range golden {
		b, err := os.ReadFile(filepath.Join(goldenDir, e.Name+".json"))
		if err != nil {
			f.Fatal(err)
		}
		if err := json.Unmarshal(b, &results[i]); err != nil {
			f.Fatalf("%s: %v", e.Name, err)
		}
		for _, ws := range results[i].Warnings {
			add(e.Target, ws.Witness)
			add(e.Target, ws.CounterWitness)
		}
	}
	// The AcmeAir entries share one witness, an always-warning's, so
	// their fingerprint census seeds the distinct shapes they reached.
	for i, e := range golden {
		if strings.HasPrefix(e.Target, "acmeair") {
			for _, fs := range results[i].Fingerprints {
				add(e.Target, fs.Token)
			}
		}
	}
	f.Fuzz(func(t *testing.T, idx uint, token string) {
		tg := targets[idx%uint(len(targets))]
		sched, perr := ParseToken(token)
		rr, report, rerr := Replay(tg, token)
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("%s: ParseToken(%q) = %v but Replay = %v", tg.Name, token, perr, rerr)
		}
		if perr != nil {
			return
		}
		replayed := replayOutcome{Run: rr, Graph: graphJSON(t, report)}
		if report != nil {
			for _, w := range report.Warnings {
				replayed.Keys = append(replayed.Keys, warnKey(w))
				replayed.Chains = append(replayed.Chains, w.Chain)
			}
		}

		fresh := runPicks(t, funcRunner{run: tg.Run}, token, sched.Picks)

		// A different schedule first: every pick one higher, and one
		// more choice point than the token records.
		other := append(slices.Clone(sched.Picks), 0)
		for i := range other {
			other[i]++
		}
		var reused replayOutcome
		if r, ok := tg.NewRunner().(*acmeAirRunner); ok {
			drainAcmeAirIdle()
			o := otherLoad.NewRunner().(*acmeAirRunner)
			runPicks(t, o, "", other)
			rt := o.rt
			o.Reset()
			reused = runPicks(t, r, token, sched.Picks)
			if r.rt != rt {
				t.Fatalf("%s: the token's runner did not take the runtime %s handed in", tg.Name, otherLoad.Name)
			}
		} else {
			r := tg.NewRunner()
			runPicks(t, r, "", other)
			r.Reset()
			reused = runPicks(t, r, token, sched.Picks)
		}

		for _, got := range []struct {
			name string
			out  replayOutcome
		}{{"fresh runtime", fresh}, {"reused runtime", reused}} {
			if got.out.Graph != replayed.Graph {
				t.Fatalf("%s, token %q: %s's graph differs from Replay's at %s", tg.Name, token, got.name, firstDiff(replayed.Graph, got.out.Graph))
			}
			if !reflect.DeepEqual(got.out, replayed) {
				got.out.Graph, replayed.Graph = "", "" // equal, and long
				want, _ := json.Marshal(replayed)
				have, _ := json.Marshal(got.out)
				t.Fatalf("%s, token %q: %s differs from Replay\nreplay: %s\n%s: %s", tg.Name, token, got.name, want, got.name, have)
			}
		}
	})
}
