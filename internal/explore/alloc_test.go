package explore

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// allocTolerance is how far a measured count may exceed its budget.
const allocTolerance = 0.25

// allocWorkload is one exploration TestAllocBudget measures. The budgets
// are heap allocations per schedule at 1 and 2 workers: each is the
// median of ten runs of TestAllocBudget (-count=10 -v) on the commit
// that recorded it.
type allocWorkload struct {
	name     string
	target   string
	runs     int
	strategy func() Strategy // a Strategy serves one exploration
	// ops is how many explorations one measurement averages. Two
	// workers share one P while testing.AllocsPerRun measures, so a
	// worker descheduled mid-run lets the other plan far ahead, and each
	// run parked out of order takes a chooser of its own. The cheap
	// case-study walks average over several explorations so that one
	// such exploration does not decide the gate.
	ops int
	// metrics turns run metrics on (WithRunMetrics).
	metrics bool
	// chains attaches causal chains after the runs (WithChains).
	chains bool
	budget [2]float64
}

// allocWorkloads are bench/'s three explore workloads — target,
// strategy and run budget as in bench/workloads.go, every seed 1 — a
// coverage walk of the case study, case-random with run metrics on, as
// serve runs every job that does not set noMetrics, and a starvation
// case as serve-table1 submits it: 64 runs at the service's default
// seed 0, metrics and chains on.
var allocWorkloads = []allocWorkload{
	{"case-random", "case:SO-17894000", 256, func() Strategy { return NewRandom(1) }, 8, false, false, [2]float64{20.01, 23.04}},
	{"acmeair-coverage", "acmeair:requests=50,clients=4,seed=1", 64, func() Strategy { return NewCoverage(1) }, 1, false, false, [2]float64{1933.53, 2175.06}},
	{"acmeair-exhaustive", "acmeair:requests=8,clients=2,seed=1", 128, func() Strategy { return NewExhaustive(true) }, 1, false, false, [2]float64{1413.79, 1515.45}},
	{"case-coverage", "case:SO-17894000", 64, func() Strategy { return NewCoverage(1) }, 8, false, false, [2]float64{22.94, 23.65}},
	{"case-random-metrics", "case:SO-17894000", 256, func() Strategy { return NewRandom(1) }, 8, true, false, [2]float64{30.48, 31.70}},
	{"serve-starvation", "case:GH-npm-12754", 64, func() Strategy { return NewRandom(0) }, 8, true, true, [2]float64{51.95, 61.65}},
}

// TestAllocBudget is the allocation gate: every exploration, runner
// set-up included, must allocate no more than its budget per schedule,
// with allocTolerance of slack. Allocation counts do not depend on the
// host's speed, so unlike wall time they can be gated on a shared
// machine; two workers vary with how the runs interleave, hence the
// slack. An AcmeAir exploration takes its runtimes from the idle list
// that the warm-up exploration of testing.AllocsPerRun fills. Since
// AllocsPerRun runs at GOMAXPROCS 1, the list keeps one runtime per
// structure, and at 2 workers the second is built in every exploration.
// The race detector allocates on its own account, so a -race build skips
// the gate.
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	for _, w := range allocWorkloads {
		tg, err := TargetByName(w.target)
		if err != nil {
			t.Fatal(err)
		}
		for i, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", w.name, workers), func(t *testing.T) {
				schedules := 0
				opts := []Option{WithRuns(w.runs), WithWorkers(workers)}
				if w.metrics {
					opts = append(opts, WithRunMetrics())
				}
				if w.chains {
					opts = append(opts, WithChains())
				}
				perOp := testing.AllocsPerRun(w.ops, func() {
					res, err := Run(context.Background(), tg, append(opts, WithStrategy(w.strategy()))...)
					if err != nil {
						t.Fatal(err)
					}
					schedules = len(res.Runs)
				})
				got, limit := perOp/float64(schedules), w.budget[i]*(1+allocTolerance)
				t.Logf("%.2f allocs/schedule over %d schedules (budget %.2f, limit %.2f)", got, schedules, w.budget[i], limit)
				if got > limit {
					t.Errorf("%.2f allocs/schedule, over the budget of %.2f by more than %.0f%%", got, w.budget[i], allocTolerance*100)
				}
			})
		}
	}
}

// frontierMemoryLimit bounds the heap an exhaustive strategy retains
// after 1,024 runs of acmeair-exhaustive's target (see
// TestExhaustiveFrontierMemory).
const frontierMemoryLimit = 8 << 20

// TestExhaustiveFrontierMemory is the retained-memory gate of the
// exhaustive frontier: after 1,024 runs of acmeair-exhaustive's target
// at one worker, the strategy — the Result dropped — must hold less than
// frontierMemoryLimit of live heap. A frontier that copies each
// discovered prefix retains about 49 MB here; one that keeps each
// branching run's recording once, with a fixed-size entry per prefix,
// retains about 2 MB. The exploration takes its runtime from the AcmeAir
// idle list and hands it back, so a short exploration first makes sure
// one is idle: otherwise the runtime it builds would be counted too. The
// race detector allocates on its own account, so a -race build skips
// the gate.
func TestExhaustiveFrontierMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not comparable under -race")
	}
	tg, err := TargetByName("acmeair:requests=8,clients=2,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), tg, WithRuns(64), WithWorkers(1), WithStrategy(NewExhaustive(true))); err != nil {
		t.Fatal(err)
	}
	strat := NewExhaustive(true)
	before := liveHeap()
	res, err := Run(context.Background(), tg, WithRuns(1024), WithWorkers(1), WithStrategy(strat))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 1024 || res.Exhausted {
		t.Fatalf("%d runs, exhausted %v: want 1,024 runs of an unfinished space", len(res.Runs), res.Exhausted)
	}
	retained := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(strat)
	t.Logf("strategy retains %.2f MB after 1,024 runs (limit %d MB)", float64(retained)/(1<<20), frontierMemoryLimit>>20)
	if retained >= frontierMemoryLimit {
		t.Error("the strategy retains more than the limit")
	}
}

// idleMemoryLimit bounds the heap the AcmeAir idle list retains after
// an exploration of acmeair-coverage's load (see TestAcmeAirIdleMemory).
const idleMemoryLimit = 5 << 20

// TestAcmeAirIdleMemory is the retained-memory gate of the AcmeAir idle
// list. With GOMAXPROCS at 2, a 4-worker exploration of
// acmeair-coverage's load builds four runtimes, and only two may stay
// idle once it returns, rewound and detached from the exploration: with
// the Result dropped, the heap must have grown by less than
// idleMemoryLimit. Two idle runtimes hold 2.4 to 3.2 MB after this
// exploration (fifteen passes) and four read 6.4 MB. What a runtime holds grows with the
// largest run it has served, to about 2.5 MB after many explorations of
// this load, so the limit is for this exploration only. The race detector allocates on its own account, so a
// -race build skips the gate.
func TestAcmeAirIdleMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not comparable under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tg, err := TargetByName("acmeair:requests=50,clients=4,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	// A first exploration fills the process-wide caches (call sites,
	// interned labels) that outlive every runtime.
	if _, err := Run(context.Background(), tg, WithRuns(8), WithWorkers(1), WithStrategy(NewCoverage(2))); err != nil {
		t.Fatal(err)
	}
	drainAcmeAirIdle()
	before := liveHeap()
	if _, err := Run(context.Background(), tg, WithRuns(64), WithWorkers(4), WithStrategy(NewCoverage(1))); err != nil {
		t.Fatal(err)
	}
	retained := int64(liveHeap()) - int64(before)
	t.Logf("the idle list retains %.2f MB in %d runtimes (limit %d MB)", float64(retained)/(1<<20), idleAcmeAirRuntimes(false), idleMemoryLimit>>20)
	if n := idleAcmeAirRuntimes(false); n != 2 {
		t.Errorf("%d idle runtimes, want GOMAXPROCS = 2", n)
	}
	if retained >= idleMemoryLimit {
		t.Error("the idle list retains more than the limit")
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
