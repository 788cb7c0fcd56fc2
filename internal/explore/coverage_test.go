package explore

import (
	"context"
	"reflect"
	"testing"

	"asyncg/internal/eventloop"
)

// TestCoveragePlanReplaysDraw pins a coverage plan to the walk it
// stands for: run i seeds one generator with seed+i, draws
// sample-or-mutate and the weighted parent from it, then keeps drawing
// from it while mutating. Fleet runs execute the plan's PickFunc and
// local runs the strategy's own Plan, whose pooled walk replays the
// draw PlanRun made, so only this reference walk catches either one
// skipping or reordering the draw.
func TestCoveragePlanReplaysDraw(t *testing.T) {
	const seed = 5
	corpus := [][]int{{1, 0, 2}, {0, 1}, {2, 2, 1, 1}}
	s, _, err := Spec{Strategy: StrategyCoverage, Seed: seed}.Options()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < coverageGeneration; i++ {
		s.PlanRun(i)
		fb := Feedback{Index: i}
		if i < len(corpus) {
			fb.NewGraph, fb.Picks = true, corpus[i]
		}
		s.Observe(fb)
	}
	for i := coverageGeneration; i < 2*coverageGeneration; i++ {
		p, st := s.PlanRun(i)
		if st != PlanReady {
			t.Fatalf("run %d: plan state %v after generation 0 was observed", i, st)
		}
		rng := refRNG(seed + int64(i))
		want := randomNext(rng)
		if intn(rng, 4) != 0 {
			want = mutateNext(rng, corpus[pickWeighted(rng, len(corpus))])
		}
		got := p.PickFunc()
		local, _ := s.Plan(i)
		for pos := 0; pos < 32; pos++ {
			w := want(pos, eventloop.ChoiceIOOrder, 3)
			if g := got(pos, eventloop.ChoiceIOOrder, 3); g != w {
				t.Fatalf("run %d pick %d: plan draws %d, reference walk %d", i, pos, g, w)
			}
			if l := local(pos, eventloop.ChoiceIOOrder, 3); l != w {
				t.Fatalf("run %d pick %d: Plan's walk draws %d, reference walk %d", i, pos, l, w)
			}
		}
	}
}

// TestMutatedScheduleRoundTrip is the greybox-mutation determinism
// property: mutating a corpus seed schedule is a pure function of the
// rng, and whatever schedule a mutated run actually followed is fully
// captured by its replay token — the mutation loop can never produce a
// run it cannot reproduce.
func TestMutatedScheduleRoundTrip(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	for seed := int64(0); seed < 25; seed++ {
		// A random run donates its recorded picks as the corpus seed.
		base, _, _ := runOnce(context.Background(), tg.runFresh, 0,
			newChooser(AllKinds(), randomNext(refRNG(seed))), nil, &config{}, newIntern())
		sched, err := ParseToken(base.Token)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Two mutations from the same generator state must agree on
		// every pick, hence on the token and the resulting graph.
		mut := func() (RunResult, []int) {
			ch := newChooser(AllKinds(), mutateNext(refRNG(seed+1000), sched.Picks))
			rr, _, _ := runOnce(context.Background(), tg.runFresh, 0, ch, nil, &config{}, newIntern())
			return rr, ch.picks
		}
		rr1, picks1 := mut()
		rr2, picks2 := mut()
		if rr1.Token != rr2.Token || !reflect.DeepEqual(picks1, picks2) {
			t.Fatalf("seed %d: mutation not deterministic: %q/%v vs %q/%v",
				seed, rr1.Token, picks1, rr2.Token, picks2)
		}
		if rr1.Fingerprint != rr2.Fingerprint {
			t.Fatalf("seed %d: mutated fingerprints diverge: %s vs %s", seed, rr1.Fingerprint, rr2.Fingerprint)
		}

		// The mutated run's token replays to the identical graph and
		// warning set.
		rep, _, err := Replay(tg, rr1.Token)
		if err != nil {
			t.Fatalf("seed %d: replay %q: %v", seed, rr1.Token, err)
		}
		if rep.Fingerprint != rr1.Fingerprint {
			t.Errorf("seed %d: replayed mutation fingerprint %s != %s (token %s)",
				seed, rep.Fingerprint, rr1.Fingerprint, rr1.Token)
		}
		if !reflect.DeepEqual(rep.Warnings, rr1.Warnings) {
			t.Errorf("seed %d: replayed mutation warnings %v != %v", seed, rep.Warnings, rr1.Warnings)
		}
	}
}

// outcomeMaps projects a Result onto its schedule-space classification:
// warning key → outcome and category → outcome. Witness tokens and run
// counts are deliberately excluded — different enumeration orders
// legitimately pick different witnesses.
func outcomeMaps(r *Result) (map[string]Outcome, map[string]Outcome) {
	warns := make(map[string]Outcome, len(r.Warnings))
	for _, ws := range r.Warnings {
		warns[ws.Key] = ws.Outcome
	}
	cats := make(map[string]Outcome, len(r.Categories))
	for _, cs := range r.Categories {
		cats[string(cs.Category)] = cs.Outcome
	}
	return warns, cats
}

// TestPORSoundness is the partial-order-reduction acceptance property:
// on every case, and on two small AcmeAir loads under I/O ordering alone,
// the pruned exhaustive enumeration produces exactly the
// always/sometimes/never classification of the unpruned one while never
// executing more schedules — and on the fan-out case, whose I/O
// completions are pairwise independent, it executes measurably fewer
// with a non-zero PrunedPicks count.
func TestPORSoundness(t *testing.T) {
	type row struct {
		id    string
		tg    Target
		kinds []eventloop.ChoiceKind
	}
	var rows []row
	for _, id := range []string{"SO-17894000", "GH-vuex-2", "GH-flock-13", "SO-50996870", "fanout-join"} {
		rows = append(rows, row{id, caseTarget(t, id), []eventloop.ChoiceKind{eventloop.ChoiceIOOrder, eventloop.ChoiceLatency}})
	}
	for _, requests := range []int{2, 3} {
		tg := AcmeAirTarget(requests, 2, 1)
		rows = append(rows, row{tg.Name, tg, []eventloop.ChoiceKind{eventloop.ChoiceIOOrder}})
	}
	for _, r := range rows {
		id := r.id
		full := mustRun(t, r.tg, WithRuns(5000), WithStrategy(NewExhaustive(false)), WithKinds(r.kinds...))
		pruned := mustRun(t, r.tg, WithRuns(5000), WithStrategy(NewExhaustive(true)), WithKinds(r.kinds...))
		if !full.Exhausted || !pruned.Exhausted {
			t.Fatalf("%s: enumeration truncated (full=%v pruned=%v); raise the budget", id, full.Exhausted, pruned.Exhausted)
		}
		t.Logf("%s: %d → %d runs, %d and %d fingerprints",
			id, len(full.Runs), len(pruned.Runs), full.NewGraphs, pruned.NewGraphs)
		fw, fc := outcomeMaps(full)
		pw, pc := outcomeMaps(pruned)
		if !reflect.DeepEqual(fw, pw) {
			t.Errorf("%s: POR changed warning classification\nfull:   %v\npruned: %v", id, fw, pw)
		}
		if !reflect.DeepEqual(fc, pc) {
			t.Errorf("%s: POR changed category classification\nfull:   %v\npruned: %v", id, fc, pc)
		}
		if len(pruned.Runs) > len(full.Runs) {
			t.Errorf("%s: POR executed more schedules (%d) than the full enumeration (%d)",
				id, len(pruned.Runs), len(full.Runs))
		}
		if id == "fanout-join" {
			if len(pruned.Runs) >= len(full.Runs) {
				t.Errorf("fanout-join: POR did not reduce the schedule count (%d vs %d)",
					len(pruned.Runs), len(full.Runs))
			}
			if pruned.PrunedPicks == 0 {
				t.Error("fanout-join: PrunedPicks = 0, want the pruned siblings counted")
			}
		}
	}
}

// TestCoverageBeatsRandom is the coverage-strategy acceptance property:
// at an equal run budget and pinned seeds, the fingerprint-corpus
// strategy discovers at least as many distinct Async-Graph shapes as
// blind random sampling on every case, and strictly more in aggregate
// thanks to the AcmeAir workload's large schedule space.
func TestCoverageBeatsRandom(t *testing.T) {
	targets := []Target{
		caseTarget(t, "SO-17894000"),
		caseTarget(t, "GH-vuex-2"),
		caseTarget(t, "fig4"),
		caseTarget(t, "GH-flock-13"),
		caseTarget(t, "fanout-join"),
	}
	runs := 40
	if !testing.Short() {
		targets = append(targets, AcmeAirTarget(20, 3, 1))
	}
	totalRandom, totalCoverage := 0, 0
	for _, tg := range targets {
		rnd := mustRun(t, tg, WithRuns(runs), WithSeed(1))
		cov := mustRun(t, tg, WithRuns(runs), WithStrategy(NewCoverage(1)))
		if cov.NewGraphs < rnd.NewGraphs {
			t.Errorf("%s: coverage found %d fingerprints, random found %d at the same %d-run budget",
				tg.Name, cov.NewGraphs, rnd.NewGraphs, runs)
		}
		if cov.CorpusSize == 0 {
			t.Errorf("%s: coverage finished with an empty corpus", tg.Name)
		}
		totalRandom += rnd.NewGraphs
		totalCoverage += cov.NewGraphs
	}
	if !testing.Short() && totalCoverage <= totalRandom {
		t.Errorf("suite aggregate: coverage %d fingerprints vs random %d, want strictly more", totalCoverage, totalRandom)
	}
}
