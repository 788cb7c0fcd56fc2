package explore

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"asyncg"
	"asyncg/internal/eventloop"
)

// resultJSON marshals a Result for byte-level comparison.
func resultJSON(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestParallelDeterminism is the acceptance property of the parallel
// execution mode: for the same seed, exploring with 1, 2, and 8 workers
// produces byte-identical Result JSON — runs, warning classification,
// fingerprint census, coverage corpus, and witness/counter-witness
// tokens included. Run it under -race: it is also the proof that
// concurrent runs share no mutable state.
//
// The coverage and POR cases are the ones the feedback loop makes hard:
// the corpus (and the POR-pruned frontier) is built from run feedback,
// so any completion-order leak into planning would show up here as a
// worker-count-dependent Result.
func TestParallelDeterminism(t *testing.T) {
	kinds := []eventloop.ChoiceKind{eventloop.ChoiceIOOrder, eventloop.ChoiceLatency}
	configs := []struct {
		name string
		runs int
		opts func() []Option // fresh options (and strategy) per Run call
	}{
		{"random", 16, func() []Option { return []Option{WithSeed(3)} }},
		{"delay", 16, func() []Option { return []Option{WithStrategy(NewDelay(7, 2))} }},
		{"random+metrics", 12, func() []Option { return []Option{WithSeed(3), WithRunMetrics()} }},
		{"exhaustive", 60, func() []Option {
			return []Option{WithStrategy(NewExhaustive(false)), WithKinds(kinds...)}
		}},
		{"exhaustive-por", 60, func() []Option {
			return []Option{WithStrategy(NewExhaustive(true)), WithKinds(kinds...)}
		}},
		{"coverage", 40, func() []Option { return []Option{WithStrategy(NewCoverage(11))} }},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			tg := caseTarget(t, "SO-17894000")
			var want string
			for _, workers := range []int{1, 2, 8} {
				opts := append(tc.opts(), WithRuns(tc.runs), WithWorkers(workers))
				got := resultJSON(t, mustRun(t, tg, opts...))
				if workers == 1 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("workers=%d: Result JSON differs from sequential\nseq: %s\npar: %s",
						workers, want, got)
				}
			}
		})
	}
}

// TestWorkersCappedAtRuns: a pool asked for more workers than runs
// starts one worker, and so one runner, per run, and its Result is the
// sequential one.
func TestWorkersCappedAtRuns(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	want := resultJSON(t, mustRun(t, tg, WithRuns(3), WithSeed(5), WithWorkers(1)))
	var runners atomic.Int32
	counted := tg
	counted.NewRunner = func() Runner {
		runners.Add(1)
		return tg.NewRunner()
	}
	if got := resultJSON(t, mustRun(t, counted, WithRuns(3), WithSeed(5), WithWorkers(1000))); got != want {
		t.Errorf("1000 workers: Result JSON differs from sequential\nseq: %s\npar: %s", want, got)
	}
	if n := runners.Load(); n != 3 {
		t.Errorf("1000 workers for 3 runs created %d runners, want 3", n)
	}
}

// TestPanicBecomesError: a panicking target fails the exploration with
// an error instead of killing the process — critically on the pool's
// spawned workers, where an unrecovered panic cannot be caught by any
// caller of Run.
func TestPanicBecomesError(t *testing.T) {
	boom := Target{
		Name: "boom",
		Run: func(extra ...asyncg.Option) (*asyncg.Report, error) {
			panic("deliberate test panic")
		},
	}
	for _, tc := range []struct {
		name string
		opts func() []Option
	}{
		{"sequential", func() []Option { return []Option{WithRuns(4), WithWorkers(1)} }},
		{"parallel", func() []Option { return []Option{WithRuns(8), WithWorkers(4)} }},
		{"delay-parallel", func() []Option {
			return []Option{WithRuns(8), WithStrategy(NewDelay(0, 2)), WithWorkers(4)}
		}},
		{"exhaustive", func() []Option {
			return []Option{WithRuns(8), WithStrategy(NewExhaustive(false)), WithWorkers(1)}
		}},
		{"exhaustive-parallel", func() []Option {
			return []Option{WithRuns(8), WithStrategy(NewExhaustive(false)), WithWorkers(4)}
		}},
		{"coverage-parallel", func() []Option {
			return []Option{WithRuns(8), WithStrategy(NewCoverage(0)), WithWorkers(4)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), boom, tc.opts()...)
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("Run error = %v, want a target-panicked error", err)
			}
			if res == nil || len(res.Runs) != 0 {
				t.Errorf("result = %+v, want an empty partial result", res)
			}
		})
	}
}

// TestPanicMidExploration: when only a later run panics, the completed
// prefix survives as the partial result and the pool drains cleanly.
func TestPanicMidExploration(t *testing.T) {
	good := caseTarget(t, "SO-17894000")
	var calls atomic.Int64
	flaky := Target{
		Name: good.Name,
		Run: func(extra ...asyncg.Option) (*asyncg.Report, error) {
			if calls.Add(1) > 2 {
				panic("deliberate test panic")
			}
			return good.Run(extra...)
		},
	}
	res, err := Run(context.Background(), flaky, WithRuns(8), WithWorkers(1))
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Run error = %v, want a target-panicked error", err)
	}
	if len(res.Runs) != 2 {
		t.Errorf("partial result has %d runs, want the 2 completed before the panic", len(res.Runs))
	}
}

// panicStrategy wraps a strategy and panics with val in Plan (inPlan)
// or Observe of run at.
type panicStrategy struct {
	Strategy
	inPlan bool
	at     int
	val    any
}

func (s *panicStrategy) Plan(i int) (PickFunc, PlanState) {
	if s.inPlan && i == s.at {
		panic(s.val)
	}
	return s.Strategy.Plan(i)
}

func (s *panicStrategy) Observe(fb Feedback) {
	if !s.inPlan && fb.Index == s.at {
		panic(s.val)
	}
	s.Strategy.Observe(fb)
}

// TestStrategyPanicReraised: a strategy panic is not a target panic.
// Plan and Observe may run on a spawned worker, where nothing could
// recover it, so the pool carries the panic back: Run re-panics with
// the original value on the caller's goroutine, after every worker has
// exited.
func TestStrategyPanicReraised(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	type boom struct{ where string }
	for _, tc := range []struct {
		where  string
		inPlan bool
		at     int
	}{
		{"observe", false, 3},
		{"plan", true, 5},
	} {
		for _, workers := range []int{1, 4} {
			val := &boom{tc.where}
			strat := &panicStrategy{Strategy: NewRandom(1), inPlan: tc.inPlan, at: tc.at, val: val}
			before := runtime.NumGoroutine()
			got := func() (v any) {
				defer func() { v = recover() }()
				Run(context.Background(), tg, WithRuns(16), WithStrategy(strat), WithWorkers(workers))
				return nil
			}()
			if got != val {
				t.Errorf("%s/workers=%d: recovered %v, want the strategy's panic value %v", tc.where, workers, got, val)
			}
			settleGoroutines(t, before)
		}
	}
}

// TestProgressSerialized: with eight workers handing in runs, the
// progress callback still sees every run once, in index order, and
// never overlaps itself — whichever worker happens to call it.
func TestProgressSerialized(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	const runs = 256
	var inside atomic.Bool
	var overlaps atomic.Int64
	next := 0
	mustRun(t, tg, WithRuns(runs), WithSeed(4), WithWorkers(8), WithProgress(func(rr RunResult) {
		if inside.Swap(true) {
			overlaps.Add(1)
		}
		if rr.Index != next {
			t.Errorf("progress saw run %d, want %d", rr.Index, next)
		}
		next++
		runtime.Gosched() // widen the window an overlapping call would need
		inside.Store(false)
	}))
	if next != runs {
		t.Errorf("progress saw %d runs, want %d", next, runs)
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("progress callback overlapped itself %d time(s)", n)
	}
}

// TestParallelExhaustiveTruncation: when the budget cuts the
// enumeration, the parallel pool must stop at exactly the same
// breadth-first point as the sequential loop (same runs, same
// Exhausted=false flag).
func TestParallelExhaustiveTruncation(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	kinds := []eventloop.ChoiceKind{eventloop.ChoiceIOOrder, eventloop.ChoiceLatency}
	seq := mustRun(t, tg, WithRuns(7), WithStrategy(NewExhaustive(false)), WithKinds(kinds...), WithWorkers(1))
	if seq.Exhausted {
		t.Fatal("budget of 7 unexpectedly exhausted the space")
	}
	par := mustRun(t, tg, WithRuns(7), WithStrategy(NewExhaustive(false)), WithKinds(kinds...), WithWorkers(4))
	if got, want := resultJSON(t, par), resultJSON(t, seq); got != want {
		t.Errorf("truncated parallel exhaustive differs\nseq: %s\npar: %s", want, got)
	}
}

// TestBudgetNote: the exhaustive strategy reports when the enumerated
// space is smaller or larger than the requested run budget, and stays
// silent when the budget matched or the strategy has no definite space.
func TestBudgetNote(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	kinds := []eventloop.ChoiceKind{eventloop.ChoiceIOOrder, eventloop.ChoiceLatency}

	small := mustRun(t, tg, WithRuns(400), WithStrategy(NewExhaustive(false)), WithKinds(kinds...))
	if !small.Exhausted {
		t.Fatal("400-run budget should exhaust the reduced-kind space")
	}
	if note := small.BudgetNote(); !strings.Contains(note, "exhausted after") {
		t.Errorf("undershoot note = %q, want mention of early exhaustion", note)
	}

	big := mustRun(t, tg, WithRuns(5), WithStrategy(NewExhaustive(false)), WithKinds(kinds...))
	if big.Exhausted {
		t.Fatal("5-run budget should truncate the space")
	}
	if note := big.BudgetNote(); !strings.Contains(note, "larger than") {
		t.Errorf("overshoot note = %q, want mention of truncation", note)
	}

	rnd := mustRun(t, tg, WithRuns(4), WithSeed(1))
	if note := rnd.BudgetNote(); note != "" {
		t.Errorf("random strategy produced a budget note: %q", note)
	}

	var text strings.Builder
	if err := big.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "note: ") {
		t.Errorf("text report missing the budget note:\n%s", text.String())
	}
}
