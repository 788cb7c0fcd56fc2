package explore

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"asyncg"
	"asyncg/internal/acmeair"
	"asyncg/internal/asyncgraph"
	"asyncg/internal/casestudy"
	"asyncg/internal/detect"
	"asyncg/internal/eventloop"
	"asyncg/internal/loc"
	"asyncg/internal/mongosim"
	"asyncg/internal/netio"
	"asyncg/internal/trace"
	"asyncg/internal/workload"
)

// Target is a program the engine can run repeatedly. Every run starts
// from a cold runtime (schedules only compose with a cold start), but
// "cold" no longer has to mean "freshly allocated": a target that
// provides NewRunner hands each pool worker a reusable runtime that is
// Reset between runs, amortizing the session's allocation set across
// the whole exploration. The Run field remains the one-shot fallback —
// a fresh runtime per call — and the two are observationally identical:
// a Reset runner replays the same announcements, object ids, and
// registration sequences a fresh session would, so Results are
// byte-identical whichever path executes a schedule.
type Target struct {
	// Name labels the target in reports.
	Name string
	// Expect lists detector categories of interest (a case study's
	// Expect set); they are classified even when never observed.
	Expect []detect.Category
	// Run executes the program once on a fresh runtime and returns its
	// report, threading extra through to asyncg.New so the engine can
	// install its scheduler. A limit error (ErrTickLimit for starvation
	// bugs) is expected and recorded, not fatal. Optional when NewRunner
	// is set; required otherwise.
	Run func(extra ...asyncg.Option) (*asyncg.Report, error)
	// NewRunner, when set, creates a reusable runner. The engine gives
	// each pool worker its own runner (runners need not be safe for
	// concurrent use) and calls Reset between Runs.
	NewRunner func() Runner
}

// Runner executes a target repeatedly on a reusable runtime. Run
// requires a cold runner — freshly created or Reset since the previous
// Run — and threads per-run options (the engine's scheduler, context,
// metrics) into the underlying session; Reset rewinds the runtime while
// retaining its allocations. See asyncg.Session.Reset for the identity
// contract reusable runners rely on.
type Runner interface {
	Run(extra ...asyncg.Option) (*asyncg.Report, error)
	Reset()
}

// funcRunner adapts the fresh-runtime Run fallback to the Runner shape:
// every Run builds a new runtime, so Reset has nothing to do.
type funcRunner struct {
	run func(extra ...asyncg.Option) (*asyncg.Report, error)
}

func (f funcRunner) Run(extra ...asyncg.Option) (*asyncg.Report, error) { return f.run(extra...) }
func (funcRunner) Reset()                                               {}

// runner creates the reusable runner a pool worker owns.
func (t Target) runner() Runner {
	if t.NewRunner != nil {
		return t.NewRunner()
	}
	return funcRunner{run: t.Run}
}

// runFresh executes the target once on a cold runtime — the replay and
// chain-attachment path, which runs outside the worker pool.
func (t Target) runFresh(extra ...asyncg.Option) (*asyncg.Report, error) {
	if t.Run != nil {
		return t.Run(extra...)
	}
	return t.NewRunner().Run(extra...)
}

// CaseTarget wraps a casestudy case (its buggy or fixed version). Both
// the one-shot fallback and the reusable runner go through
// casestudy.NewRunner, so every schedule executes the same code path
// whichever the coordinator picks.
func CaseTarget(c casestudy.Case, fixed bool) Target {
	name := c.ID + " (buggy)"
	if fixed {
		name = c.ID + " (fixed)"
	}
	return Target{
		Name:   name,
		Expect: c.Expect,
		Run: func(extra ...asyncg.Option) (*asyncg.Report, error) {
			return casestudy.NewRunner(c, fixed).Run(extra...)
		},
		NewRunner: func() Runner { return casestudy.NewRunner(c, fixed) },
	}
}

// CaseTargetByID looks up a case study by ID and wraps it.
func CaseTargetByID(id string, fixed bool) (Target, error) {
	c, ok := casestudy.ByID(id)
	if !ok {
		return Target{}, fmt.Errorf("explore: unknown case %q", id)
	}
	if fixed && c.Fixed == nil {
		return Target{}, fmt.Errorf("explore: case %q has no fixed version", id)
	}
	return CaseTarget(c, fixed), nil
}

// AcmeAirTarget wraps the AcmeAir benchmark server under its workload
// driver (the Fig. 6 setup, scaled down): requests total requests from
// clients concurrent clients, with the driver's operation mix drawn from
// seed. Both the one-shot fallback and the reusable runner execute
// through acmeAirRunner, so every schedule runs the same code path (and
// the same source locations — graph labels and fingerprints depend on
// them) whichever the coordinator picks.
func AcmeAirTarget(requests, clients int, seed int64) Target {
	newRunner := func() Runner {
		return &acmeAirRunner{requests: requests, clients: clients, seed: seed}
	}
	return Target{
		Name: fmt.Sprintf("acmeair[requests=%d,clients=%d,seed=%d]", requests, clients, seed),
		Run: func(extra ...asyncg.Option) (*asyncg.Report, error) {
			return newRunner().Run(extra...)
		},
		NewRunner: newRunner,
	}
}

// acmeAirRunner reuses one session (loop, network, database, graph
// builder, detectors) across repeated AcmeAir executions. The sample data
// is loaded and sealed once, so Reset restores it (mongosim.DB.Seal); the
// application and workload driver are rebuilt per run from warm pools.
type acmeAirRunner struct {
	requests, clients int
	seed              int64

	session *asyncg.Session
	net     *netio.Network
	db      *mongosim.DB
}

func (r *acmeAirRunner) Run(extra ...asyncg.Option) (*asyncg.Report, error) {
	if r.session == nil {
		opts := append([]asyncg.Option{asyncg.WithLoop(eventloop.Options{TickLimit: 100_000_000})}, extra...)
		r.session = asyncg.New(opts...)
		loop := r.session.Loop()
		r.net = netio.New(loop, netio.Options{})
		r.db = mongosim.New(loop, mongosim.Options{})
		acmeair.LoadSampleData(r.db, acmeair.DefaultDataSpec())
		r.db.Seal()
	} else {
		r.session.Apply(extra...)
	}
	app := acmeair.New(r.session.Loop(), r.net, r.db, acmeair.Config{UsePromises: true})
	driver := workload.NewDriver(r.net, workload.Options{
		Port:     app.Port(),
		Clients:  r.clients,
		Requests: r.requests,
		Seed:     r.seed,
	})
	return r.session.Run(func(*asyncg.Context) {
		if err := app.Listen(loc.Here()); err != nil {
			panic(err)
		}
		driver.Start()
	})
}

func (r *acmeAirRunner) Reset() {
	if r.session != nil {
		r.session.Reset()
	}
}

// config parameterizes an exploration; it is built through the
// functional options (WithRuns, WithStrategy, ...) passed to Run.
type config struct {
	// Runs bounds the number of executions. 0 means 32.
	Runs int
	// Seed is recorded in Result.Seed and seeds the default strategy
	// (strategies built explicitly — NewRandom(seed), NewCoverage(seed)
	// — own their seed; WithSeed does not reach into them).
	Seed int64
	// Strategy is the schedule-space walk; nil means NewRandom(Seed).
	Strategy Strategy
	// Kinds restricts which choice-point classes are perturbed; nil
	// means DefaultKinds.
	Kinds []eventloop.ChoiceKind
	// Workers is the number of schedules executed concurrently. 0 means
	// runtime.GOMAXPROCS(0); 1 preserves strictly sequential execution.
	//
	// Determinism guarantee: every run is an isolated single-threaded
	// simulation — a fresh runtime per call, or a pool worker's reusable
	// runner Reset to an observationally identical cold state — whose
	// outcome depends only on its
	// PickFunc, results and strategy feedback are processed strictly in
	// run-index order, and well-behaved strategies plan from feedback
	// counts, not completion order (see Strategy) — so the Result (runs,
	// warning classification, fingerprint census, corpus, witness and
	// counter-witness tokens) is byte-identical for any worker count.
	Workers int
	// Progress, when set, receives every completed RunResult in
	// run-index order (see WithProgress).
	Progress func(RunResult)
	// RunMetrics attaches the trace metrics registry to every run and
	// aggregates the snapshots into Result.Metrics (see WithRunMetrics).
	RunMetrics bool
	// Feedback copies each run's choice-point record (domain sizes,
	// independence flags) into its RunResult (see WithRunFeedback).
	Feedback bool
	// Chains attaches async causal chains to the classified warnings
	// after aggregation (see WithChains and AttachChains).
	Chains bool
	// DebugStacks turns on creation-stack capture inside every run and
	// witness replay (see WithDebugStacks).
	DebugStacks bool
}

func (c config) withDefaults() config {
	if c.Runs == 0 {
		c.Runs = 32
	}
	if c.Strategy == nil {
		c.Strategy = NewRandom(c.Seed)
	}
	if c.Kinds == nil {
		c.Kinds = DefaultKinds()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Outcome classifies a warning across the explored schedules.
type Outcome string

// Warning outcomes.
const (
	// OutcomeAlways: present in every explored schedule — the bug (or
	// detector finding) is schedule-independent.
	OutcomeAlways Outcome = "always"
	// OutcomeSometimes: present in some schedules and absent in others —
	// the finding is schedule-dependent; Witness and CounterWitness
	// reproduce one run of each.
	OutcomeSometimes Outcome = "sometimes"
	// OutcomeNever: an expected category that no explored schedule
	// produced.
	OutcomeNever Outcome = "never"
)

// RunResult summarizes one executed schedule.
type RunResult struct {
	// Index is the run's position in the exploration (0-based); for the
	// exhaustive strategy it is the breadth-first enumeration order.
	Index int `json:"index"`
	// Token replays this run (see Replay and asyncg explore -replay).
	Token string `json:"token"`
	// Fingerprint is the canonical Async-Graph hash of the run.
	Fingerprint string `json:"fingerprint"`
	// Warnings lists the run's warning keys ("category @ location"),
	// sorted and deduplicated.
	Warnings []string `json:"warnings,omitempty"`
	// Err records a run-limit error (tick/time limit), if any.
	Err string `json:"err,omitempty"`
	// Ticks is the number of top-level callbacks executed.
	Ticks int `json:"ticks"`
	// NewGraph marks the first run (in index order) that produced its
	// fingerprint — the coverage signal fed back to the strategy.
	NewGraph bool `json:"newGraph,omitempty"`
	// NewGraphs is the running count of distinct fingerprints up to and
	// including this run.
	NewGraphs int `json:"newGraphs,omitempty"`
	// CorpusSize is the coverage strategy's corpus size after this run's
	// feedback was absorbed (0 for strategies without a corpus).
	CorpusSize int `json:"corpusSize,omitempty"`
	// PrunedPicks is the running total of sibling picks partial-order
	// reduction skipped (0 without POR).
	PrunedPicks int `json:"prunedPicks,omitempty"`
	// Domains records the domain size of every choice point the run hit,
	// in pick order. Populated only under WithRunFeedback — it is the
	// fleet coordinator's input for expanding the exhaustive frontier
	// remotely — and stripped before results are merged or compared.
	Domains []int `json:"domains,omitempty"`
	// Independent records, per choice point, whether the pick permutes
	// independent alternatives (the partial-order-reduction signal).
	// Populated only under WithRunFeedback, alongside Domains.
	Independent []bool `json:"independent,omitempty"`
}

// WarningStat classifies one warning key across all runs.
type WarningStat struct {
	// Key is the "category @ location" warning identity.
	Key string `json:"key"`
	// Category is the detector category parsed back out of Key.
	Category detect.Category `json:"category"`
	// Outcome is the always/sometimes/never classification.
	Outcome Outcome `json:"outcome"`
	// Runs counts the runs that produced the warning.
	Runs int `json:"runs"`
	// Witness replays a run that produced the warning — the warning's
	// replay token (`asyncg explore -replay <witness>` reproduces it
	// deterministically).
	Witness string `json:"witness,omitempty"`
	// CounterWitness replays a run that did not (sometimes only). Both
	// tokens are always emitted together on every surface (text,
	// NDJSON, serve, fleet): a schedule-dependent finding without its
	// counter-example is half a diagnosis.
	CounterWitness string `json:"counterWitness,omitempty"`
	// Chain is the warning's async causal chain, walked on a replay of
	// the Witness schedule (see AttachChains). Populated only when
	// chains were requested (WithChains / -chains / jobSpec.chains);
	// additive on every stream and result surface.
	Chain []asyncgraph.ChainHop `json:"chain,omitempty"`
}

// CategoryStat classifies one detector category across all runs
// (coarser than WarningStat: any warning of the category counts).
type CategoryStat struct {
	// Category is the detector category being classified.
	Category detect.Category `json:"category"`
	// Outcome is the always/sometimes/never classification.
	Outcome Outcome `json:"outcome"`
	// Runs counts the runs that produced any warning of the category.
	Runs int `json:"runs"`
	// Expected marks categories in the target's Expect set.
	Expected bool `json:"expected"`
	// Witness replays a run that produced the category.
	Witness string `json:"witness,omitempty"`
	// CounterWitness replays a run that did not (sometimes only).
	CounterWitness string `json:"counterWitness,omitempty"`
}

// FingerprintStat counts the runs that produced one graph shape.
type FingerprintStat struct {
	// Fingerprint is the canonical Async-Graph hash (Graph.Fingerprint).
	Fingerprint string `json:"fingerprint"`
	// Runs counts the runs that produced this shape.
	Runs int `json:"runs"`
	// Token reproduces the first run that hit this shape.
	Token string `json:"token"`
}

// Result is a completed exploration.
type Result struct {
	// Target names the explored program (Target.Name).
	Target string `json:"target"`
	// Strategy names the walk that produced the runs (Strategy.Name).
	Strategy string `json:"strategy"`
	// Seed is the base seed the random/delay strategies derived their
	// per-run generators from.
	Seed int64 `json:"seed"`
	// Requested is the run budget the exploration was configured with
	// (Config.Runs). For StrategyExhaustive len(Runs) may be smaller —
	// the space was exhausted first — or the budget may have truncated
	// the enumeration (see Exhausted).
	Requested int `json:"requested"`
	// Exhausted reports that StrategyExhaustive enumerated the entire
	// choice tree within the run budget.
	Exhausted bool `json:"exhausted,omitempty"`
	// Runs records every executed schedule, in run-index order.
	Runs []RunResult `json:"runs"`
	// Fingerprints is the census of distinct Async-Graph shapes.
	Fingerprints []FingerprintStat `json:"fingerprints"`
	// Warnings classifies each warning key across all runs.
	Warnings []WarningStat `json:"warnings"`
	// Categories classifies each detector category across all runs.
	Categories []CategoryStat `json:"categories"`
	// NewGraphs counts the distinct Async-Graph fingerprints discovered
	// (== len(Fingerprints); duplicated for stream consumers).
	NewGraphs int `json:"newGraphs,omitempty"`
	// CorpusSize is the coverage strategy's final corpus size.
	CorpusSize int `json:"corpusSize,omitempty"`
	// PrunedPicks is the total sibling picks partial-order reduction
	// skipped — schedules the unpruned exhaustive enumeration would
	// have queued.
	PrunedPicks int `json:"prunedPicks,omitempty"`
	// Metrics is the aggregate observability snapshot over all runs
	// (nil unless WithRunMetrics was set).
	Metrics *trace.Snapshot `json:"metrics,omitempty"`
}

// Sometimes returns the schedule-dependent warning stats.
func (r *Result) Sometimes() []WarningStat {
	var out []WarningStat
	for _, w := range r.Warnings {
		if w.Outcome == OutcomeSometimes {
			out = append(out, w)
		}
	}
	return out
}

// Run explores the target's schedule space under the given options.
// With WithWorkers(n > 1) the schedules execute concurrently (each on a
// fully isolated runtime); the Result is identical for any worker count.
//
// Cancellation: ctx is polled between runs and, through
// asyncg.WithContext, at every tick boundary inside each run, so a
// cancelled or expired context stops the exploration promptly — workers
// are drained, never abandoned. Run then returns ctx's error together
// with a partial Result covering the completed run prefix (truncated
// runs are discarded: their fingerprints and warning sets describe an
// incomplete execution and would poison the always/sometimes
// classification).
//
// Panics: a panicking target never crashes the process — not even with
// WithWorkers(n > 1), where runs execute on pool goroutines. The panic
// is recovered at the run boundary, the exploration shuts down along
// the cancellation path, and Run returns the panic as an error with a
// partial Result.
func Run(ctx context.Context, t Target, opts ...Option) (*Result, error) {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	return runExploration(ctx, t, cfg)
}

// runExploration runs the coordinator and folds the strategy's own
// reporting (space exhaustion, coverage stats) into the Result.
func runExploration(ctx context.Context, t Target, cfg config) (*Result, error) {
	cfg = cfg.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{Target: t.Name, Strategy: cfg.Strategy.Name(), Seed: cfg.Seed, Requested: cfg.Runs}
	err := runCoordinator(ctx, t, cfg, res)
	if err == nil {
		if sr, ok := cfg.Strategy.(SpaceReporter); ok {
			res.Exhausted = sr.Exhausted()
		}
	}
	if cr, ok := cfg.Strategy.(CoverageReporter); ok {
		stats := cr.CoverageStats()
		res.CorpusSize = stats.CorpusSize
		res.PrunedPicks = stats.PrunedPicks
	}
	aggregate(t, res)
	res.NewGraphs = len(res.Fingerprints)
	if err == nil && cfg.Chains {
		AttachChains(t, res, cfg.DebugStacks)
	}
	return res, err
}

// emitRun appends one completed run to the result in run-index order:
// the per-run record, the metrics aggregate, and the progress callback
// all advance together, so a streaming consumer sees exactly the prefix
// the final Result will contain.
func emitRun(res *Result, cfg *config, rr RunResult, snap *trace.Snapshot) {
	res.Runs = append(res.Runs, rr)
	if snap != nil {
		if res.Metrics == nil {
			res.Metrics = &trace.Snapshot{}
		}
		res.Metrics.Merge(snap)
	}
	if cfg.Progress != nil {
		cfg.Progress(rr)
	}
}

// intern is one pool worker's scratch state. Warning keys recur across
// thousands of schedules of the same target, so the rendered
// "category @ location" strings are cached by identity; the per-run
// dedup set is reused (cleared, not reallocated) between runs.
type intern struct {
	keys map[internKey]string
	seen map[string]bool
}

// internKey is a warning's identity without its message — exactly the
// information warnKey renders.
type internKey struct {
	cat asyncgraph.Category
	loc loc.Loc
}

func newIntern() *intern {
	return &intern{keys: make(map[internKey]string), seen: make(map[string]bool)}
}

// key returns the warning's exploration identity, cached.
func (in *intern) key(w asyncgraph.Warning) string {
	id := internKey{cat: w.Category, loc: w.Loc}
	if s, ok := in.keys[id]; ok {
		return s
	}
	s := warnKey(w)
	in.keys[id] = s
	return s
}

// schedProxy is the scheduler a worker's option slice captures once:
// re-aiming it at each run's chooser lets the worker reuse one slice
// (and one set of option closures) for the whole exploration instead of
// rebuilding options per run. It forwards IndependenceScheduler too —
// every chooser implements it, and the loop type-asserts the installed
// scheduler to discover independence support.
type schedProxy struct{ ch *chooser }

func (p *schedProxy) Choose(kind eventloop.ChoiceKind, n int) int { return p.ch.Choose(kind, n) }

func (p *schedProxy) BeginPermute(kind eventloop.ChoiceKind, keys []uint64) {
	p.ch.BeginPermute(kind, keys)
}

// workerExtras builds the per-run option slice a worker hands to every
// Run call: the proxy's chooser is swapped per run, everything else
// (context bound, metrics, debug stacks) is fixed for the exploration.
func workerExtras(ctx context.Context, proxy *schedProxy, cfg *config) []asyncg.Option {
	extra := []asyncg.Option{asyncg.WithScheduler(proxy)}
	if ctx != nil {
		extra = append(extra, asyncg.WithContext(ctx))
	}
	if cfg.RunMetrics {
		extra = append(extra, asyncg.WithMetrics())
	}
	if cfg.DebugStacks {
		extra = append(extra, asyncg.WithDebugStacks())
	}
	return extra
}

// runOnce executes the target under one scheduler — on run, a pool
// worker's reusable runner or the fresh-runtime fallback — and
// summarizes it. Everything the result needs (token, fingerprint,
// warning keys) is copied out of the report before returning, so the
// caller may Reset the runner immediately afterwards. extras is the
// worker's prebuilt option slice, whose scheduler proxy must already
// point at ch; a nil extras builds a one-shot slice (the tests' cold
// path). The run's own ticks honor ctx through asyncg.WithContext; a
// cancelled run comes back with rr.Err set to the context error, and
// callers drop it from the Result. A panicking target is recovered
// here — the one place every execution path shares, including the pool
// workers of the parallel coordinator — and surfaced as err;
// coordinators treat it as fatal to the exploration, so a panic fails
// the caller's job without ever killing a worker goroutine (or the
// process).
func runOnce(ctx context.Context, run func(extra ...asyncg.Option) (*asyncg.Report, error), idx int, ch *chooser, extras []asyncg.Option, cfg *config, in *intern) (rr RunResult, snap *trace.Snapshot, err error) {
	defer func() {
		if p := recover(); p != nil {
			rr, snap = RunResult{}, nil
			err = fmt.Errorf("explore: target panicked on run %d: %v", idx, p)
		}
	}()
	if extras == nil {
		extras = workerExtras(ctx, &schedProxy{ch: ch}, cfg)
	}
	report, rerr := run(extras...)
	rr = RunResult{Index: idx, Token: ch.Schedule().Token()}
	if rerr != nil {
		rr.Err = rerr.Error()
	}
	if report == nil {
		return rr, nil, nil
	}
	rr.Ticks = report.Ticks
	if report.Graph != nil {
		rr.Fingerprint = report.Graph.Fingerprint()
	}
	clear(in.seen)
	for _, w := range report.Warnings {
		key := in.key(w)
		if !in.seen[key] {
			in.seen[key] = true
			rr.Warnings = append(rr.Warnings, key)
		}
	}
	sort.Strings(rr.Warnings)
	return rr, report.Metrics, nil
}

// Replay runs the target once under a recorded schedule token; extra
// options (tracing, metrics, asyncg.WithDebugStacks) ride along, so a
// witness schedule can be re-examined with the full observability stack
// attached. Every warning of the replayed report is annotated with its
// provenance: ReplayToken is stamped with token and Chain with the
// async causal chain walked back from the warning's graph node.
func Replay(t Target, token string, extra ...asyncg.Option) (RunResult, *asyncg.Report, error) {
	sched, err := ParseToken(token)
	if err != nil {
		return RunResult{}, nil, err
	}
	ch := newChooser(AllKinds(), playbackNext(sched.Picks))
	opts := append([]asyncg.Option{asyncg.WithScheduler(ch)}, extra...)
	report, rerr := t.runFresh(opts...)
	rr := RunResult{Token: token}
	if rerr != nil {
		rr.Err = rerr.Error()
	}
	if report != nil {
		rr.Ticks = report.Ticks
		if report.Graph != nil {
			rr.Fingerprint = report.Graph.Fingerprint()
		}
		annotateReport(report, token)
		seen := make(map[string]bool)
		for _, w := range report.Warnings {
			key := warnKey(w)
			if !seen[key] {
				seen[key] = true
				rr.Warnings = append(rr.Warnings, key)
			}
		}
		sort.Strings(rr.Warnings)
	}
	return rr, report, nil
}

// aggregate fills the result's fingerprint census and warning/category
// classification from the per-run records.
func aggregate(t Target, res *Result) {
	total := len(res.Runs)
	fpCount := make(map[string]int)
	fpToken := make(map[string]string)
	warnCount := make(map[string]int)
	warnWitness := make(map[string]string)
	catCount := make(map[detect.Category]int)
	catWitness := make(map[detect.Category]string)
	for _, rr := range res.Runs {
		if fpCount[rr.Fingerprint] == 0 {
			fpToken[rr.Fingerprint] = rr.Token
		}
		fpCount[rr.Fingerprint]++
		cats := make(map[detect.Category]bool)
		for _, key := range rr.Warnings {
			if warnCount[key] == 0 {
				warnWitness[key] = rr.Token
			}
			warnCount[key]++
			cats[warnKeyCategory(key)] = true
		}
		for cat := range cats {
			if catCount[cat] == 0 {
				catWitness[cat] = rr.Token
			}
			catCount[cat]++
		}
	}

	counterFor := func(has func(RunResult) bool) string {
		for _, rr := range res.Runs {
			if !has(rr) {
				return rr.Token
			}
		}
		return ""
	}
	outcomeOf := func(count int) Outcome {
		switch {
		case count == 0:
			return OutcomeNever
		case count == total:
			return OutcomeAlways
		default:
			return OutcomeSometimes
		}
	}

	for key, count := range warnCount {
		ws := WarningStat{
			Key:      key,
			Category: warnKeyCategory(key),
			Outcome:  outcomeOf(count),
			Runs:     count,
			Witness:  warnWitness[key],
		}
		if ws.Outcome == OutcomeSometimes {
			k := key
			ws.CounterWitness = counterFor(func(rr RunResult) bool {
				for _, w := range rr.Warnings {
					if w == k {
						return true
					}
				}
				return false
			})
		}
		res.Warnings = append(res.Warnings, ws)
	}
	sort.Slice(res.Warnings, func(i, j int) bool { return res.Warnings[i].Key < res.Warnings[j].Key })

	// Category classification covers the union of observed categories
	// and the target's expected set, so "never" is expressible.
	expected := make(map[detect.Category]bool)
	for _, cat := range t.Expect {
		expected[cat] = true
		if _, ok := catCount[cat]; !ok {
			catCount[cat] = 0
		}
	}
	for cat, count := range catCount {
		cs := CategoryStat{
			Category: cat,
			Outcome:  outcomeOf(count),
			Runs:     count,
			Expected: expected[cat],
			Witness:  catWitness[cat],
		}
		if cs.Outcome == OutcomeSometimes {
			c := cat
			cs.CounterWitness = counterFor(func(rr RunResult) bool {
				for _, w := range rr.Warnings {
					if warnKeyCategory(w) == c {
						return true
					}
				}
				return false
			})
		}
		res.Categories = append(res.Categories, cs)
	}
	sort.Slice(res.Categories, func(i, j int) bool { return res.Categories[i].Category < res.Categories[j].Category })

	for fp, count := range fpCount {
		res.Fingerprints = append(res.Fingerprints, FingerprintStat{Fingerprint: fp, Runs: count, Token: fpToken[fp]})
	}
	sort.Slice(res.Fingerprints, func(i, j int) bool {
		a, b := res.Fingerprints[i], res.Fingerprints[j]
		if a.Runs != b.Runs {
			return a.Runs > b.Runs
		}
		return a.Fingerprint < b.Fingerprint
	})
}

// warnKey renders a warning's exploration identity: "category @ location".
func warnKey(w asyncgraph.Warning) string {
	return fmt.Sprintf("%s @ %s", w.Category, w.Loc)
}

// warnKeyCategory recovers the category from a "category @ location"
// warning key.
func warnKeyCategory(key string) detect.Category {
	for i := 0; i+3 <= len(key); i++ {
		if key[i:i+3] == " @ " {
			return detect.Category(key[:i])
		}
	}
	return detect.Category(key)
}
