package explore

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"asyncg"
	"asyncg/internal/eventloop"
)

// spinTarget is a program whose every run is an unbounded setImmediate
// chain: left alone it would grind until an absurd tick limit, so the
// only way an exploration of it finishes quickly is the context
// interrupt firing at a tick boundary inside the run. It makes in-run
// cancellation (as opposed to the cheap between-run poll) observable.
func spinTarget() Target {
	return Target{
		Name: "spin (endless immediates)",
		Run: func(extra ...asyncg.Option) (*asyncg.Report, error) {
			opts := append([]asyncg.Option{asyncg.WithLoop(eventloop.Options{TickLimit: math.MaxInt})}, extra...)
			s := asyncg.New(opts...)
			return s.Run(func(ctx *asyncg.Context) {
				var spin *asyncg.Function
				spin = asyncg.F("spin", func(args []asyncg.Value) asyncg.Value {
					ctx.SetImmediate(spin)
					return asyncg.Undefined
				})
				ctx.SetImmediate(spin)
			})
		},
	}
}

// TestRunPreCancelled: a context cancelled before Run is called returns
// promptly with zero completed runs for every strategy and worker
// count — the acceptance bar for job cancellation in the server.
func TestRunPreCancelled(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	strategies := []func() Strategy{
		func() Strategy { return NewRandom(0) },
		func() Strategy { return NewDelay(0, 2) },
		func() Strategy { return NewExhaustive(false) },
		func() Strategy { return NewCoverage(0) },
	}
	for _, mk := range strategies {
		for _, workers := range []int{1, 4} {
			strat := mk()
			res, err := Run(ctx, tg, WithRuns(50), WithStrategy(strat), WithWorkers(workers))
			if err != context.Canceled {
				t.Errorf("%s/workers=%d: err = %v, want context.Canceled", strat.Name(), workers, err)
			}
			if len(res.Runs) != 0 {
				t.Errorf("%s/workers=%d: %d runs completed under a pre-cancelled context", strat.Name(), workers, len(res.Runs))
			}
		}
	}
}

// TestRunCancelMidway cancels from the progress callback a few runs in:
// the exploration must stop early, report the context error, and the
// partial Result must be exactly a prefix of the uncancelled sequential
// exploration — cancellation never emits a truncated run.
func TestRunCancelMidway(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	const budget = 500
	full := mustRun(t, tg, WithRuns(64), WithSeed(2))

	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		res, err := Run(ctx, tg, WithRuns(budget), WithSeed(2), WithWorkers(workers),
			WithProgress(func(RunResult) {
				seen++
				if seen == 5 {
					cancel()
				}
			}))
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(res.Runs) < 5 || len(res.Runs) == budget {
			t.Fatalf("workers=%d: %d runs completed, want a proper prefix of %d with at least 5", workers, len(res.Runs), budget)
		}
		for i, rr := range res.Runs {
			if rr.Index != i {
				t.Fatalf("workers=%d: run %d has index %d; partial result is not a contiguous prefix", workers, i, rr.Index)
			}
			if i < len(full.Runs) && !reflect.DeepEqual(rr, full.Runs[i]) {
				t.Fatalf("workers=%d: run %d diverges from the uncancelled exploration:\n got %+v\nwant %+v", workers, i, rr, full.Runs[i])
			}
		}
	}
}

// TestRunCancelStopsSpinningRun: cancellation must reach inside a run,
// not just between runs — a deadline expiring mid-spin stops the
// endless-immediate target at its next tick boundary, workers drain,
// and the truncated runs are discarded.
func TestRunCancelStopsSpinningRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Run(ctx, spinTarget(), WithRuns(4), WithWorkers(2))
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; the in-run interrupt is not firing", elapsed)
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if len(res.Runs) != 0 {
		t.Fatalf("%d truncated spin runs leaked into the result", len(res.Runs))
	}
}

// TestRunCancelNoGoroutineLeak: after cancelled parallel explorations
// (including exhaustive) Run must have waited out every worker — the
// goroutine count returns to its baseline.
func TestRunCancelNoGoroutineLeak(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	before := runtime.NumGoroutine()

	for _, mk := range []func() Strategy{
		func() Strategy { return NewRandom(0) },
		func() Strategy { return NewExhaustive(false) },
		func() Strategy { return NewCoverage(0) },
	} {
		strat := mk()
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		_, err := Run(ctx, tg, WithRuns(500), WithStrategy(strat), WithWorkers(4),
			WithProgress(func(RunResult) {
				seen++
				if seen == 3 {
					cancel()
				}
			}))
		cancel()
		if err != context.Canceled {
			t.Fatalf("%s: err = %v, want context.Canceled", strat.Name(), err)
		}
	}
	// Cancelled spin runs exercise the interrupt-drain path too.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	Run(ctx, spinTarget(), WithRuns(4), WithWorkers(4))
	cancel()

	settleGoroutines(t, before)
}

// settleGoroutines fails the test unless the goroutine count returns to
// before. A worker has finished by the time Run returns, but may not yet
// have exited, so the count gets a moment of scheduler latency.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Run returned", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
