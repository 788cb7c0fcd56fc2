package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"asyncg/internal/eventloop"
)

// shardWindows cuts [0, total) into consecutive windows of size at most
// width.
func shardWindows(total, width int) [][2]int {
	var out [][2]int
	for start := 0; start < total; start += width {
		n := width
		if start+n > total {
			n = total - start
		}
		out = append(out, [2]int{start, n})
	}
	return out
}

// runShard executes one ShardSpec against tg and returns the shard's
// runs (locally indexed 0..len(spec.Plans)-1).
func runShard(t *testing.T, tg Target, spec ShardSpec, kinds []eventloop.ChoiceKind) []RunResult {
	t.Helper()
	strat, err := ShardStrategy(spec)
	if err != nil {
		t.Fatalf("ShardStrategy(%+v): %v", spec, err)
	}
	opts := []Option{WithStrategy(strat), WithRuns(len(spec.Plans)), WithWorkers(2)}
	if kinds != nil {
		opts = append(opts, WithKinds(kinds...))
	}
	return mustRun(t, tg, opts...).Runs
}

// checkShardRun compares a shard-local run against the full
// exploration's run at the same global index: the schedule itself
// (token) and everything derived from a single execution must match;
// cross-run aggregates (NewGraph, NewGraphs, CorpusSize, PrunedPicks)
// are the coordinator's job and intentionally differ.
func checkShardRun(t *testing.T, global int, want, got RunResult) {
	t.Helper()
	if got.Token != want.Token {
		t.Errorf("run %d: token = %q, want %q", global, got.Token, want.Token)
	}
	if got.Fingerprint != want.Fingerprint {
		t.Errorf("run %d: fingerprint = %q, want %q", global, got.Fingerprint, want.Fingerprint)
	}
	if got.Ticks != want.Ticks || got.Err != want.Err {
		t.Errorf("run %d: ticks/err = %d/%q, want %d/%q", global, got.Ticks, got.Err, want.Ticks, want.Err)
	}
	if strings.Join(got.Warnings, "|") != strings.Join(want.Warnings, "|") {
		t.Errorf("run %d: warnings = %v, want %v", global, got.Warnings, want.Warnings)
	}
}

// planRecorder drives a Planner through PlanRun — the way the fleet
// coordinator does — and records every plan it hands out.
type planRecorder struct {
	Planner
	plans []RunPlan
}

func (r *planRecorder) Plan(i int) (PickFunc, PlanState) {
	p, st := r.PlanRun(i)
	if st == PlanReady {
		r.plans = append(r.plans, p)
	}
	return planPicks(p, st)
}

// checkShardsReplay is the shard invariant for one built-in strategy:
// an exploration planned through PlanRun matches the plain one run for
// run, and every width-sized window of its recorded plans, shipped as a
// JSON round-tripped ShardSpec, reproduces exactly the plain
// exploration's runs at those global indices. It returns the plain
// exploration.
func checkShardsReplay(t *testing.T, s Spec, runs int, kinds []eventloop.ChoiceKind, widths ...int) *Result {
	t.Helper()
	tg := caseTarget(t, "SO-17894000")
	planner := func() Planner {
		p, _, err := s.Options()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	opts := []Option{WithRuns(runs)}
	if kinds != nil {
		opts = append(opts, WithKinds(kinds...))
	}
	full := mustRun(t, tg, append(opts, WithStrategy(planner()))...)
	rec := &planRecorder{Planner: planner()}
	viaPlans := mustRun(t, tg, append(opts, WithStrategy(rec))...)
	if len(viaPlans.Runs) != len(full.Runs) || len(rec.plans) != len(full.Runs) {
		t.Fatalf("PlanRun-driven exploration: %d runs from %d plans, want %d", len(viaPlans.Runs), len(rec.plans), len(full.Runs))
	}
	for i, got := range viaPlans.Runs {
		checkShardRun(t, i, full.Runs[i], got)
	}
	for _, width := range widths {
		for _, w := range shardWindows(len(rec.plans), width) {
			b, err := json.Marshal(ShardSpec{Version: ShardVersion, Start: w[0], Plans: rec.plans[w[0] : w[0]+w[1]]})
			if err != nil {
				t.Fatal(err)
			}
			var spec ShardSpec
			if err := json.Unmarshal(b, &spec); err != nil {
				t.Fatal(err)
			}
			for j, got := range runShard(t, tg, spec, kinds) {
				checkShardRun(t, w[0]+j, full.Runs[w[0]+j], got)
			}
		}
	}
	return full
}

// TestShardStrategySeeded: random and delay plans depend only on the
// run's seed, so any window of them replays anywhere.
func TestShardStrategySeeded(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		checkShardsReplay(t, Spec{Strategy: StrategyRandom, Seed: 3}, 16, nil, 1, 5, 16)
	})
	t.Run("delay", func(t *testing.T) {
		checkShardsReplay(t, Spec{Strategy: StrategyDelay, Seed: 7, DelayBound: 2}, 16, nil, 1, 5, 16)
	})
}

// TestShardStrategyCoverage: a coverage plan records the corpus size its
// draw used and the mutation parent it picked, so the run replays
// without the corpus — including that the PickFunc's repeated draw
// leaves the generator where the strategy's own Plan would.
func TestShardStrategyCoverage(t *testing.T) {
	checkShardsReplay(t, Spec{Strategy: StrategyCoverage, Seed: 11}, 40, nil, 3, 8)
}

// TestShardStrategyExhaustive: an exhaustive plan is its forced prefix,
// with and without partial-order reduction.
func TestShardStrategyExhaustive(t *testing.T) {
	kinds := []eventloop.ChoiceKind{eventloop.ChoiceIOOrder, eventloop.ChoiceLatency}
	for _, por := range []bool{false, true} {
		full := checkShardsReplay(t, Spec{Strategy: StrategyExhaustive, POR: por}, 60, kinds, 7)
		if !full.Exhausted {
			t.Fatalf("por=%v: 60-run budget should exhaust the reduced-kind space", por)
		}
	}
}

// TestWithRunFeedback: the option populates Domains and Independent on
// every run (the fleet coordinator's frontier-expansion input), the
// default leaves them empty, and the recorded domains are consistent
// with the replay token's pick positions.
func TestWithRunFeedback(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	plain := mustRun(t, tg, WithRuns(4), WithSeed(3))
	for _, rr := range plain.Runs {
		if rr.Domains != nil || rr.Independent != nil {
			t.Fatalf("run %d: feedback fields populated without WithRunFeedback", rr.Index)
		}
	}
	fb := mustRun(t, tg, WithRuns(4), WithSeed(3), WithRunFeedback())
	for i, rr := range fb.Runs {
		if len(rr.Domains) == 0 || len(rr.Domains) != len(rr.Independent) {
			t.Fatalf("run %d: domains/independent = %d/%d entries", i, len(rr.Domains), len(rr.Independent))
		}
		sched, err := ParseToken(rr.Token)
		if err != nil {
			t.Fatal(err)
		}
		if len(sched.Picks) > len(rr.Domains) {
			t.Errorf("run %d: token has %d picks but only %d domains recorded", i, len(sched.Picks), len(rr.Domains))
		}
		stripped := rr
		stripped.Domains, stripped.Independent = nil, nil
		if got, want := stripped, plain.Runs[i]; got.Token != want.Token || got.Fingerprint != want.Fingerprint {
			t.Errorf("run %d: feedback option changed the run (token %q vs %q)", i, got.Token, want.Token)
		}
	}
}

// validShardSpecs holds one accepted spec per walk.
func validShardSpecs() []ShardSpec {
	const v = ShardVersion
	return []ShardSpec{
		{Version: v, Start: 5, Plans: []RunPlan{{Walk: StrategyRandom, Seed: 9}, {Walk: StrategyRandom, Seed: 10}}},
		{Version: v, Plans: []RunPlan{{Walk: StrategyDelay, Seed: 1, DelayBound: 3}}},
		{Version: v, Start: 8, Plans: []RunPlan{{Walk: StrategyCoverage, Seed: 11, Corpus: 2, Picks: []int{0, 1}}, {Walk: StrategyCoverage, Seed: 12, Corpus: 2}}},
		{Version: v, Start: 2, Plans: []RunPlan{{Walk: StrategyExhaustive, Picks: []int{0, 1}}, {Walk: StrategyExhaustive}}},
	}
}

// invalidShardSpecs holds the specs a fleet coordinator (or a
// version-skewed worker) must be told about loudly: a missing or other
// version, and one bad field each at the current version.
func invalidShardSpecs() []ShardSpec {
	const v = ShardVersion
	one := func(p RunPlan) []RunPlan { return []RunPlan{p} }
	specs := []ShardSpec{
		{Plans: one(RunPlan{Walk: StrategyRandom, Seed: 1})},
		{Version: 1, Plans: one(RunPlan{Walk: StrategyRandom, Seed: 1})},
		{Version: v + 1, Plans: one(RunPlan{Walk: StrategyRandom, Seed: 1})},
		{Version: v, Start: 0},
		{Version: v, Start: -1, Plans: one(RunPlan{Walk: StrategyRandom})},
		{Version: v, Plans: one(RunPlan{Walk: "anneal"})},
		{Version: v, Plans: []RunPlan{{Walk: StrategyRandom}, {}}},
		{Version: v, Plans: one(RunPlan{Walk: StrategyRandom, Picks: []int{1}})},
		{Version: v, Plans: one(RunPlan{Walk: StrategyDelay, Seed: 1})},
		{Version: v, Plans: one(RunPlan{Walk: StrategyDelay, DelayBound: 2, Corpus: 1})},
		{Version: v, Plans: one(RunPlan{Walk: StrategyCoverage, Corpus: -1})},
		{Version: v, Plans: one(RunPlan{Walk: StrategyCoverage, Corpus: maxPlanCorpus + 1, Picks: []int{1}})},
		{Version: v, Plans: one(RunPlan{Walk: StrategyCoverage, DelayBound: 2})},
		{Version: v, Plans: one(RunPlan{Walk: StrategyExhaustive, Seed: 3})},
		{Version: v, Plans: one(RunPlan{Walk: StrategyExhaustive, Picks: []int{-1}})},
	}
	// A pick past maxPlanPick does not fit in a 32-bit int.
	if pick := int64(maxPlanPick) + 1; pick <= math.MaxInt {
		specs = append(specs, ShardSpec{Version: v, Plans: one(RunPlan{Walk: StrategyExhaustive, Picks: []int{int(pick)}})})
	}
	return specs
}

// TestShardSpecValidate: Validate and ShardStrategy agree on every
// accepted and refused spec.
func TestShardSpecValidate(t *testing.T) {
	for _, spec := range invalidShardSpecs() {
		if err := spec.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", spec)
		} else if spec.Version != ShardVersion && !strings.Contains(err.Error(), `"version"`) {
			t.Errorf("Validate(%+v) = %v, want the version field named", spec, err)
		}
		if _, err := ShardStrategy(spec); err == nil {
			t.Errorf("ShardStrategy(%+v): want error", spec)
		}
	}
	for _, spec := range validShardSpecs() {
		if err := spec.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", spec, err)
		}
	}
}

// FuzzShardSpec drives the shard wire decoder end to end: decode,
// Validate, ShardStrategy, Run. No input may panic; an accepted spec
// must yield one run per plan, and each run's token must replay to the
// same fingerprint.
func FuzzShardSpec(f *testing.F) {
	for _, spec := range append(validShardSpecs(), invalidShardSpecs()...) {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"version":2,"start":0,"plans":[{"walk":"coverage","seed":1,"corpus":4294967296,"picks":[1]}]}`))
	tg, err := TargetByName("case:SO-17894000")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var spec ShardSpec
		if dec.Decode(&spec) != nil || len(spec.Plans) > 8 || spec.Validate() != nil {
			return
		}
		strat, err := ShardStrategy(spec)
		if err != nil {
			t.Fatalf("ShardStrategy refused a spec Validate accepted: %v", err)
		}
		res, err := Run(context.Background(), tg, WithStrategy(strat), WithRuns(len(spec.Plans)), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Runs) != len(spec.Plans) {
			t.Fatalf("%d plans gave %d runs", len(spec.Plans), len(res.Runs))
		}
		for _, rr := range res.Runs {
			got, _, err := Replay(tg, rr.Token)
			if err != nil || got.Fingerprint != rr.Fingerprint {
				t.Fatalf("run %d: replay of %s gave %q (err %v), want fingerprint %q", rr.Index, rr.Token, got.Fingerprint, err, rr.Fingerprint)
			}
		}
	})
}

// TestFinalize: rebuilding the aggregates from stitched runs matches the
// single-process aggregation — the merge invariant the fleet
// coordinator's byte-identical guarantee rests on.
func TestFinalize(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	full := mustRun(t, tg, WithRuns(12), WithSeed(3))
	want := resultJSON(t, full)

	rebuilt := &Result{
		Target:    full.Target,
		Strategy:  full.Strategy,
		Seed:      full.Seed,
		Requested: full.Requested,
		Runs:      append([]RunResult(nil), full.Runs...),
		// Poison the aggregates to prove Finalize rebuilds them.
		Fingerprints: []FingerprintStat{{Fingerprint: "bogus"}},
		Warnings:     []WarningStat{{Key: "bogus"}},
		Categories:   []CategoryStat{{Category: "bogus"}},
		NewGraphs:    999,
	}
	Finalize(tg, rebuilt)
	if got := resultJSON(t, rebuilt); got != want {
		t.Errorf("Finalize mismatch\nwant: %s\ngot:  %s", want, got)
	}
}
