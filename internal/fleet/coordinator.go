// Package fleet is the distributed exploration coordinator: it fans one
// schedule-space exploration across many asyncg serve workers and
// reassembles their partial results into output byte-identical to a
// single-process explore.Run at the same budget.
//
// The coordinator drives the same explore.Planner a local exploration
// uses, built from the same explore.Spec: it cuts consecutive PlanRun
// answers into shards of RunPlans, and every shard is a self-contained
// job any worker can execute via the jobs API. The coordinator consumes
// each job's live NDJSON stream, rewrites the runs' local indices to
// global ones, and hands them in global run order to the explore.Fold
// a local exploration builds its Result with — the NewGraph census,
// the strategy's Observe, the metrics merge and the final aggregation
// all exist once, in package explore.
//
// Every completed shard is committed to a write-ahead journal before it
// counts, so a killed coordinator resumes from its last completed shard
// (Config.Resume) instead of restarting the exploration.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"asyncg/internal/explore"
	"asyncg/internal/trace"
)

// Plan is the deterministic description of one distributed exploration —
// everything the strategy and the shard boundaries depend on, and
// exactly what plan.json persists for resume.
type Plan struct {
	// Spec is the exploration. Its target is a registry spec every
	// worker resolves identically; shard workers never compute chains —
	// the coordinator attaches them locally after the merge, where they
	// are a deterministic function of (target, witness token), so the
	// merged Result stays byte-identical to a single-process explore.Run.
	explore.Spec
	// ShardRuns is the shard width in runs (default 8). A shard is cut
	// shorter only where planning ends or the strategy waits on
	// feedback from every earlier run (see coordinator.nextShard).
	ShardRuns int `json:"shardRuns,omitempty"`
	// Metrics aggregates per-run trace snapshots into Result.Metrics,
	// like explore.WithRunMetrics.
	Metrics bool `json:"metrics,omitempty"`
}

func (p Plan) withDefaults() Plan {
	if p.Strategy == "" {
		p.Strategy = explore.StrategyRandom
	}
	if p.Runs == 0 {
		p.Runs = 32
	}
	if p.ShardRuns <= 0 {
		p.ShardRuns = 8
	}
	return p
}

// equal compares plans for the resume check (JSON-normalized, so only
// the persisted planning inputs count).
func (p Plan) equal(other Plan) bool {
	return string(mustJSON(p)) == string(mustJSON(other))
}

// LoadPlan reads a journal directory's plan — how `asyncg fleet -resume`
// recovers the original flags.
func LoadPlan(dir string) (Plan, error) {
	return readPlan(dir + "/plan.json")
}

// Config parameterizes a coordinator run.
type Config struct {
	// Plan is the exploration to distribute.
	Plan Plan
	// Workers lists the serve base URLs ("http://host:port"). At most
	// one shard is in flight per worker entry.
	Workers []string
	// Dir is the journal directory (required).
	Dir string
	// Resume continues the journal already in Dir instead of starting
	// fresh: Plan must match plan.json, and completed shards load from
	// disk instead of re-running.
	Resume bool
	// RequestTimeout bounds each control request (submit, cancel);
	// streams run under the exploration context only. 0 = 10s.
	RequestTimeout time.Duration
	// MaxAttempts is the per-shard dispatch attempt budget across
	// workers. 0 = 5.
	MaxAttempts int
	// BackoffBase/BackoffCap shape the capped exponential retry delay
	// (attempt n waits base<<n, clamped to cap; a 429's Retry-After
	// overrides when longer). 0 = 100ms / 5s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Progress, when set, receives every run in global index order —
	// the same contract as explore.WithProgress.
	Progress func(explore.RunResult)
	// Logf, when set, receives coordinator progress lines (dispatches,
	// retries, resumes).
	Logf func(format string, args ...any)
	// LookupTarget resolves Plan.Target for the final aggregation
	// (warning classification needs the target's Expect set); nil means
	// explore.TargetByName.
	LookupTarget func(string) (explore.Target, error)
}

func (c Config) withDefaults() Config {
	c.Plan = c.Plan.withDefaults()
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 5 * time.Second
	}
	if c.LookupTarget == nil {
		c.LookupTarget = explore.TargetByName
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Stats summarizes a coordinator run for reporting and tests.
type Stats struct {
	// Shards is the total number of shards the plan produced.
	Shards int
	// Dispatched counts shards actually sent to workers this run.
	Dispatched int
	// Resumed counts shards loaded from the journal instead of running.
	Resumed int
	// Retries counts failed dispatch attempts that were retried.
	Retries int
}

// shardResult carries one shard's outcome back to the coordinator loop.
type shardResult struct {
	idx     int
	spec    explore.ShardSpec
	out     *shardOutput
	err     error
	retries int
}

// Run executes the plan against the configured workers and returns the
// merged Result. On context cancellation it returns ctx's error with
// the journal intact, so a later Resume run picks up where it stopped.
func Run(ctx context.Context, cfg Config) (*explore.Result, *Stats, error) {
	cfg = cfg.withDefaults()
	strategy, opts, err := cfg.Plan.Options()
	if err != nil {
		return nil, nil, err
	}
	if len(cfg.Workers) == 0 {
		return nil, nil, errors.New("fleet: no workers configured")
	}
	if cfg.Dir == "" {
		return nil, nil, errors.New("fleet: no journal directory configured")
	}
	target, err := cfg.LookupTarget(cfg.Plan.Target)
	if err != nil {
		return nil, nil, err
	}
	jr, err := openJournal(cfg.Dir, cfg.Plan, cfg.Resume)
	if err != nil {
		return nil, nil, err
	}
	defer jr.close()

	if cfg.Plan.Metrics {
		opts = append(opts, explore.WithRunMetrics())
	}
	fold := explore.NewFold(target, append(opts, explore.WithProgress(cfg.Progress))...)
	c := &coordinator{cfg: cfg, strategy: strategy, fold: fold, journal: jr}
	return c.run(ctx)
}

type coordinator struct {
	cfg      Config
	strategy explore.Planner
	fold     *explore.Fold // the Result, built in global run order
	journal  *journal

	idle    *idleWorkers // one in-flight shard per worker entry
	results chan shardResult

	stats Stats

	// Shard forming (see nextShard): formed counts the runs of every
	// shard cut so far, observed the runs fed back through Observe, buf
	// holds the plans of the shard being formed, and planEnded records
	// that no further run will be planned.
	formed, observed int
	buf              []explore.RunPlan
	planEnded        bool
}

func (c *coordinator) run(ctx context.Context) (*explore.Result, *Stats, error) {
	cfg := c.cfg
	c.idle = &idleWorkers{all: len(cfg.Workers), freed: make(chan struct{})}
	for _, url := range cfg.Workers {
		c.idle.idle = append(c.idle.idle, newClient(url, cfg.RequestTimeout))
	}
	c.results = make(chan shardResult)

	inFlight := 0
	nextObserve := 0
	pending := make(map[int]shardResult)
	shardCount := 0
	var fatal error

	// drain waits out in-flight dispatches after a failure or cancel, so
	// no goroutine outlives the coordinator.
	drain := func() {
		for inFlight > 0 {
			<-c.results
			inFlight--
		}
	}

	for {
		// progressed records whether this iteration formed or absorbed
		// anything: a feedback-gated strategy (coverage, exhaustive) only
		// plans more runs after absorbing, so the loop must circle back
		// to forming — and an iteration with no progress, nothing in
		// flight, and an unfinished plan is a genuine stall.
		progressed := false

		// Form every shard the strategy will plan and the worker pool can
		// hold; journaled shards complete instantly, skipping dispatch.
		for inFlight < len(cfg.Workers) {
			spec, ok := c.nextShard()
			if !ok {
				break
			}
			progressed = true
			idx := shardCount
			shardCount++
			c.stats.Shards++
			c.journal.event(statusEvent{Event: "planned", Shard: idx, Start: spec.Start, Runs: len(spec.Plans)})
			if out, err := c.journal.take(idx, spec); err != nil {
				fatal = err
				break
			} else if out != nil {
				c.stats.Resumed++
				c.journal.event(statusEvent{Event: "resumed", Shard: idx, Start: spec.Start, Runs: len(spec.Plans)})
				cfg.Logf("fleet: shard %d [%d,%d) resumed from journal", idx, spec.Start, spec.Start+len(spec.Plans))
				pending[idx] = shardResult{idx: idx, spec: spec, out: out}
				continue
			}
			c.stats.Dispatched++
			c.journal.event(statusEvent{Event: "dispatched", Shard: idx, Start: spec.Start, Runs: len(spec.Plans)})
			inFlight++
			go c.dispatch(ctx, idx, spec)
		}
		if fatal != nil {
			drain()
			break
		}

		// Absorb completed shards strictly in shard order (= global run
		// order, since windows are consecutive).
		for {
			sr, ok := pending[nextObserve]
			if !ok {
				break
			}
			delete(pending, nextObserve)
			nextObserve++
			progressed = true
			if err := c.absorb(sr); err != nil {
				fatal = err
				break
			}
			c.journal.event(statusEvent{Event: "done", Shard: sr.idx, Start: sr.spec.Start, Runs: len(sr.spec.Plans)})
		}
		if fatal != nil {
			drain()
			break
		}

		if inFlight == 0 {
			if c.planEnded && len(c.buf) == 0 && len(pending) == 0 {
				break
			}
			if !progressed {
				fatal = errors.New("fleet: strategy stalled with no work in flight")
				break
			}
			continue
		}
		select {
		case sr := <-c.results:
			inFlight--
			c.stats.Retries += sr.retries
			if sr.err != nil {
				fatal = sr.err
				drain()
			} else {
				pending[sr.idx] = sr
			}
		case <-ctx.Done():
			fatal = ctx.Err()
			drain()
		}
		if fatal != nil {
			break
		}
	}

	if fatal == nil {
		fatal = ctx.Err()
	}
	return c.fold.Finish(fatal), &c.stats, fatal
}

// nextShard cuts the next shard from consecutive PlanRun answers, or
// reports that none can be cut yet. The boundary rule: a shard is
// ShardRuns plans wide, and is cut shorter only when planning has ended
// (the budget is reached or the strategy answered PlanDone) or when the
// strategy waits while every run of every earlier shard has been
// observed — then no outstanding feedback could let it plan further.
// Either way the boundary depends only on the plan, never on when
// shards complete, so a resumed coordinator re-forms exactly the
// journaled shards.
func (c *coordinator) nextShard() (explore.ShardSpec, bool) {
	for !c.planEnded && len(c.buf) < c.cfg.Plan.ShardRuns {
		i := c.formed + len(c.buf)
		if i >= c.cfg.Plan.Runs {
			c.planEnded = true
			break
		}
		p, st := c.strategy.PlanRun(i)
		if st == explore.PlanReady {
			c.buf = append(c.buf, p)
			continue
		}
		// Like the local coordinator, a strategy that waits with nothing
		// outstanding can never unblock and is treated as done.
		if st == explore.PlanDone || len(c.buf) == 0 && c.observed == c.formed {
			c.planEnded = true
		}
		break
	}
	short := len(c.buf) < c.cfg.Plan.ShardRuns
	if len(c.buf) == 0 || short && !c.planEnded && c.observed < c.formed {
		return explore.ShardSpec{}, false
	}
	spec := explore.ShardSpec{Version: explore.ShardVersion, Start: c.formed, Plans: c.buf}
	c.formed += len(c.buf)
	c.buf = nil
	return spec, true
}

// dispatch runs one shard to completion: worker choice, capped
// exponential backoff, Retry-After, and reassignment on mid-stream
// death are all here. A retry waits for a worker the shard has not yet
// failed on, so a dead worker's free slot cannot take every attempt
// while the live workers are busy; once the shard has failed on every
// worker, any worker will do. The journal commit happens before the
// result is reported, so "completed" always means "on disk".
func (c *coordinator) dispatch(ctx context.Context, idx int, spec explore.ShardSpec) {
	req := jobRequest{
		Target:    c.cfg.Plan.Target,
		Kinds:     c.cfg.Plan.Kinds,
		NoMetrics: !c.cfg.Plan.Metrics,
		Shard:     &spec,
	}
	sr := shardResult{idx: idx, spec: spec}
	failed := make(map[*client]bool) // the workers this shard failed on
	for attempt := 0; ; attempt++ {
		cl, err := c.idle.take(ctx, failed)
		if err != nil {
			sr.err = err
			c.results <- sr
			return
		}
		out, err := cl.runShard(ctx, req)
		c.idle.put(cl)
		if err == nil {
			if err := c.journal.commitShard(idx, spec, out); err != nil {
				sr.err = fmt.Errorf("fleet: journaling shard %d: %w", idx, err)
				c.results <- sr
				return
			}
			sr.out = out
			c.results <- sr
			return
		}
		var perm *permanentError
		if errors.As(err, &perm) || ctx.Err() != nil || attempt+1 >= c.cfg.MaxAttempts {
			sr.err = fmt.Errorf("fleet: shard %d [%d,%d) failed after %d attempt(s): %w",
				idx, spec.Start, spec.Start+len(spec.Plans), attempt+1, err)
			c.results <- sr
			return
		}
		failed[cl] = true
		sr.retries++
		delay := backoffDelay(attempt, c.cfg.BackoffBase, c.cfg.BackoffCap, err)
		c.cfg.Logf("fleet: shard %d attempt %d on %s failed (%v); retrying in %s", idx, attempt+1, cl.base, err, delay)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			sr.err = ctx.Err()
			c.results <- sr
			return
		}
	}
}

// absorb folds one completed shard into the Result, run by run in
// global order: each run must carry its local index, which is rewritten
// to the global one before the fold takes it. The shard's metrics
// snapshot comes with its last run.
func (c *coordinator) absorb(sr shardResult) error {
	last := len(sr.out.Runs) - 1
	for j, rr := range sr.out.Runs {
		if rr.Index != j {
			return fmt.Errorf("fleet: shard %d run %d arrived with local index %d", sr.idx, j, rr.Index)
		}
		rr.Index = sr.spec.Start + j
		var snap *trace.Snapshot
		if j == last {
			snap = sr.out.Metrics
		}
		if err := c.fold.Add(rr, snap); err != nil {
			return fmt.Errorf("fleet: shard %d: %w", sr.idx, err)
		}
		c.observed++
	}
	return nil
}
