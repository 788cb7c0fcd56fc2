package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"asyncg/internal/explore"
)

// workers is the exploration worker count of every workload: the nproc
// of the host the bounds were measured on, so the one load-generating
// process never runs more workers than there are CPUs.
const workers = 2

// spanLimit bounds the spans one traced pass keeps for the spans file.
const spanLimit = 1 << 18

// replaysPerPass is how many of its sampled schedules each traced pass of
// an explore workload replays through explore.Replay, the fresh-runtime
// path that witness chains use.
const replaysPerPass = 16

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	phase   time.Duration // the measured phase; a traced pass splits it in two halves
	traced  bool
	setups  int // set-ups timed for setup_s
	maxOps  int // stop each phase after this many ops; 0 means no limit
	ablateN int // recorded schedules the ablation replays
}

// workload is one named set of generated inputs and the loop that
// drives them.
type workload struct {
	name string
	run  func(cfg runConfig) (*report, *tracer, error)
}

var workloads = []workload{
	{"case-random", caseRandom.run},
	{"acmeair-coverage", acmeairCoverage.run},
	{"acmeair-exhaustive", acmeairExhaustive.run},
	{"serve-table1", runServe},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// exploreSpec is a closed-loop exploration workload: op k explores the
// target spec target(seed, k) under strategy(seed, k) with runs
// schedules, and the next op starts when its verdict returns.
type exploreSpec struct {
	runs     int
	target   func(seed int64, k int) string
	strategy func(seed int64, k int) explore.Strategy
	// check validates every op's Result on its own.
	check func(res *explore.Result) error
	// reference compares op 0 with a one-worker run of the same op.
	reference func(got, ref *explore.Result) error
}

// caseRandom: a 4-node case study whose two warnings depend on the
// schedule, so per-schedule engine work dominates.
var caseRandom = exploreSpec{
	runs:     256,
	target:   func(int64, int) string { return "case:SO-17894000" },
	strategy: func(seed int64, k int) explore.Strategy { return explore.NewRandom(seed*1000 + int64(k)) },
	check:    checkBothSometimes,
}

// acmeairCoverage: ~620-node AcmeAir graphs under the greybox walk, so
// the runtime, builder, detectors and Fingerprint dominate.
var acmeairCoverage = exploreSpec{
	runs: 64,
	target: func(seed int64, k int) string {
		return fmt.Sprintf("acmeair:requests=50,clients=4,seed=%d", seed+int64(k))
	},
	strategy:  func(seed int64, k int) explore.Strategy { return explore.NewCoverage(seed + int64(k)) },
	reference: sameNewGraphs,
}

// acmeairExhaustive: a smaller AcmeAir under breadth-first enumeration
// with partial-order reduction, where planning waits on feedback.
var acmeairExhaustive = exploreSpec{
	runs: 128,
	target: func(seed int64, k int) string {
		return fmt.Sprintf("acmeair:requests=8,clients=2,seed=%d", seed+int64(k))
	},
	strategy:  func(int64, int) explore.Strategy { return explore.NewExhaustive(true) },
	reference: sameJSON,
}

// checkBothSometimes: SO-17894000 has two warning keys, and each must be
// schedule-dependent, with a witness and a counter-witness.
func checkBothSometimes(res *explore.Result) error {
	if len(res.Warnings) != 2 {
		return fmt.Errorf("%d warning keys, want 2", len(res.Warnings))
	}
	for _, w := range res.Warnings {
		if w.Outcome != explore.OutcomeSometimes || w.Witness == "" || w.CounterWitness == "" {
			return fmt.Errorf("warning %q is %s with witness %q and counter-witness %q, want sometimes with both",
				w.Key, w.Outcome, w.Witness, w.CounterWitness)
		}
	}
	return nil
}

func sameNewGraphs(got, ref *explore.Result) error {
	if got.NewGraphs != ref.NewGraphs {
		return fmt.Errorf("%d new graphs, the reference found %d", got.NewGraphs, ref.NewGraphs)
	}
	return nil
}

func sameJSON(got, ref *explore.Result) error {
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return errors.New("the Result JSON differs from the reference")
	}
	return nil
}

// op runs op k with w workers. With a tracer the layers are wrapped,
// the op is a span, and explore.Finalize is timed inside it. The latency
// is the explore.Run call alone, in milliseconds.
func (e exploreSpec) op(seed int64, k, w int, tr *tracer) (*explore.Result, float64, error) {
	target, err := explore.TargetByName(e.target(seed, k))
	if err != nil {
		return nil, 0, err
	}
	strat := e.strategy(seed, k)
	if tr != nil {
		target, strat = tr.target(target), tr.strategy(strat)
		i := tr.begin(k)
		defer tr.end(i)
	}
	start := time.Now()
	res, err := explore.Run(context.Background(), target,
		explore.WithRuns(e.runs), explore.WithWorkers(w), explore.WithStrategy(strat))
	lat := float64(time.Since(start).Nanoseconds()) / 1e6
	if err == nil && tr != nil {
		tr.finalize(target, res)
	}
	return res, lat, err
}

// phaseResult is what one measured phase of a closed loop produced.
type phaseResult struct {
	schedules, graphs, ticks int
	latMs                    []float64
	wall                     time.Duration
	op0                      *explore.Result
	recorded                 *sampler // the traced phase's schedules
}

// phase runs ops k = 0, 1, ... back to back for d.
func (e exploreSpec) phase(cfg runConfig, d time.Duration, tr *tracer, r *report) phaseResult {
	p := phaseResult{recorded: newSampler(cfg.ablateN)}
	start := time.Now()
	for k := 0; time.Since(start) < d && (cfg.maxOps == 0 || k < cfg.maxOps); k++ {
		r.Attempted++
		res, lat, err := e.op(cfg.seed, k, workers, tr)
		if err != nil {
			r.fail("op %d: %v", k, err)
			continue
		}
		if k == 0 {
			p.op0 = res
		}
		p.latMs = append(p.latMs, lat)
		p.schedules += len(res.Runs)
		p.graphs += res.NewGraphs
		spec := e.target(cfg.seed, k)
		for _, rr := range res.Runs {
			p.ticks += rr.Ticks
			if tr != nil {
				p.recorded.offer(scheduled{target: spec, token: rr.Token, fingerprint: rr.Fingerprint})
			}
		}
		if e.check != nil {
			if err := e.check(res); err != nil {
				r.fail("op %d: %v", k, err)
			}
		}
	}
	p.wall = time.Since(start)
	return p
}

func (e exploreSpec) run(cfg runConfig) (*report, *tracer, error) {
	r := &report{}
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		if _, _, err := e.op(cfg.seed, 0, workers, nil); err != nil {
			return nil, nil, fmt.Errorf("warm-up op: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if !cfg.traced {
		p := e.phase(cfg, cfg.phase, nil, r)
		e.checkReference(cfg, p.op0, r)
		setEndToEnd(r, float64(p.schedules), float64(p.graphs), p.wall, p.latMs, setups)
		return r, nil, nil
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain := e.phase(cfg, cfg.phase/2, nil, r)
	runtime.ReadMemStats(&after)
	tr := newTracer(spanLimit)
	traced := e.phase(cfg, cfg.phase/2, tr, r)
	e.checkReference(cfg, plain.op0, r)
	if plain.op0 != nil && traced.op0 != nil {
		if err := sameJSON(traced.op0, plain.op0); err != nil {
			r.fail("op 0, traced against untraced: %v", err)
		}
	}
	recorded := traced.recorded.sample()
	for _, rec := range recorded[:min(replaysPerPass, len(recorded))] {
		t, err := explore.TargetByName(rec.target)
		if err != nil {
			return nil, nil, err
		}
		if _, _, err := explore.Replay(tr.target(t), rec.token); err != nil {
			r.fail("replay %s: %v", rec.token, err)
		}
	}
	ab, err := ablate(recorded)
	if err != nil {
		return nil, nil, err
	}
	setLayers(r, layerInputs{
		sum:        tr.summarize(),
		ab:         ab,
		plainRate:  ratio(float64(plain.schedules), plain.wall.Seconds()),
		tracedRate: ratio(float64(traced.schedules), traced.wall.Seconds()),
		allocs:     float64(after.Mallocs - before.Mallocs),
		bytes:      float64(after.TotalAlloc - before.TotalAlloc),
		schedules:  float64(plain.schedules),
		ticks:      float64(plain.ticks),
	})
	return r, tr, nil
}

// checkReference reruns op 0 with one worker and compares it with the
// measured op 0; a mismatch fails op 0.
func (e exploreSpec) checkReference(cfg runConfig, op0 *explore.Result, r *report) {
	if e.reference == nil || op0 == nil {
		return
	}
	ref, _, err := e.op(cfg.seed, 0, 1, nil)
	if err == nil {
		err = e.reference(op0, ref)
	}
	if err != nil {
		r.fail("op 0 against a one-worker run: %v", err)
	}
}
