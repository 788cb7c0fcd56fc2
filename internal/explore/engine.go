package explore

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

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
// retaining its allocations, and may hand it on (see acmeAirIdle). See
// asyncg.Session.Reset for the identity contract reusable runners rely on.
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
// whichever of the two a worker uses.
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
// them) whichever of the two a worker uses. The fallback builds a new
// runtime per call; reusable runners share rewound ones (acmeAirIdle).
func AcmeAirTarget(requests, clients int, seed int64) Target {
	load := acmeAirRunner{requests: requests, clients: clients, seed: seed}
	return Target{
		Name: fmt.Sprintf("acmeair[requests=%d,clients=%d,seed=%d]", requests, clients, seed),
		Run: func(extra ...asyncg.Option) (*asyncg.Report, error) {
			r := load
			return r.Run(extra...)
		},
		NewRunner: func() Runner {
			r := load
			r.shared = true
			return &r
		},
	}
}

// acmeAirRunner runs one AcmeAir load on an acmeAirRuntime, which the
// load does not shape: the application and the workload driver are
// rebuilt per run from the runtime's warm pools. A shared runner takes a
// runtime from acmeAirIdle when it has none and hands it back at Reset.
type acmeAirRunner struct {
	requests, clients int
	seed              int64
	shared            bool // made by NewRunner; Target.Run's runners are not

	rt *acmeAirRuntime // nil before Run and after Reset hands it in
}

func (r *acmeAirRunner) Run(extra ...asyncg.Option) (*asyncg.Report, error) {
	if r.rt == nil {
		r.rt = acmeAirRuntimeFor(r.shared, extra)
	} else {
		r.rt.session.Apply(extra...)
	}
	// Every line from here to the end of Run keeps its place: graph
	// labels, and so fingerprints, hold these lines' numbers.
	app := acmeair.New(r.rt.session.Loop(), r.rt.net, r.rt.db)
	driver := workload.NewDriver(r.rt.net, workload.Options{
		Clients:  r.clients,
		Requests: r.requests,
		Seed:     r.seed,
	})
	return r.rt.session.Run(func(*asyncg.Context) {
		if err := app.Listen(loc.Here()); err != nil {
			panic(err)
		}
		driver.Start()
	})
}

// Reset rewinds the runtime. A shared runner hands it in to acmeAirIdle,
// detached from the last run's scheduler and context, unless the idle
// list of its structure is full; then the runner keeps it.
func (r *acmeAirRunner) Reset() {
	if r.rt == nil {
		return
	}
	r.rt.session.Reset()
	if r.rt.shared {
		r.rt.session.Apply()
		if acmeAirIdle.put(r.rt) {
			r.rt = nil
		}
	}
}

// acmeAirRuntime is what an AcmeAir run needs besides its load: a
// session (loop, graph builder, detectors), the simulated network, and
// the sample data, loaded and sealed once so that Reset restores it
// (mongosim.DB.Seal).
type acmeAirRuntime struct {
	session *asyncg.Session
	net     *netio.Network
	db      *mongosim.DB
	metrics bool // its structure: built with run metrics on
	shared  bool // goes back to acmeAirIdle at Reset
}

// acmeAirRuntimeFor returns a runtime for a run under extra: for a
// shared runner, an idle one of the structure extra builds if there is
// one, else a new one. Only the two structures asyncg.Structure tells
// apart are shared; under a trace, debug stacks, Disabled, WithDetect or
// WithLoop the runner builds a runtime it keeps.
func acmeAirRuntimeFor(shared bool, extra []asyncg.Option) *acmeAirRuntime {
	metrics, ok := asyncg.Structure(extra...)
	shared = shared && ok
	if shared {
		if rt := acmeAirIdle.take(metrics); rt != nil {
			rt.session.Apply(extra...)
			return rt
		}
	}
	opts := append([]asyncg.Option{asyncg.WithLoop(eventloop.Options{TickLimit: 100_000_000})}, extra...)
	rt := &acmeAirRuntime{session: asyncg.New(opts...), metrics: metrics, shared: shared}
	loop := rt.session.Loop()
	rt.net = netio.New(loop)
	rt.db = mongosim.New(loop)
	acmeair.LoadSampleData(rt.db, acmeair.DefaultDataSpec())
	rt.db.Seal()
	return rt
}

// acmeAirIdle holds rewound AcmeAir runtimes between runs, so that a
// stream of explorations (serve jobs, fleet shards, a benchmark's closed
// loop) builds and loads each runtime once, not once per worker per
// exploration. Runners of any load may share a runtime, but only one of
// the structure they would build: the lists are keyed by whether run
// metrics are on. Each list holds at most GOMAXPROCS runtimes, as many
// as can run at once. A sync.Pool would not do: it drops what it holds
// within two garbage collections, and with AcmeAir's small live heap
// the collector runs many times a second.
var acmeAirIdle = idleRuntimes{lists: make(map[bool][]*acmeAirRuntime)}

// idleRuntimes is a last-in, first-out list of runtimes per structure.
type idleRuntimes struct {
	mu    sync.Mutex
	lists map[bool][]*acmeAirRuntime
}

// take removes and returns the runtime of the given structure handed in
// last, or nil if none is idle.
func (l *idleRuntimes) take(metrics bool) *acmeAirRuntime {
	l.mu.Lock()
	defer l.mu.Unlock()
	list := l.lists[metrics]
	if len(list) == 0 {
		return nil
	}
	rt := list[len(list)-1]
	list[len(list)-1] = nil
	l.lists[metrics] = list[:len(list)-1]
	return rt
}

// put hands a rewound runtime in, and reports false, keeping nothing,
// when its structure's list already holds GOMAXPROCS runtimes.
func (l *idleRuntimes) put(rt *acmeAirRuntime) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	list := l.lists[rt.metrics]
	if len(list) >= runtime.GOMAXPROCS(0) {
		return false
	}
	l.lists[rt.metrics] = append(list, rt)
	return true
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
	// DebugStacks turns on creation-stack capture inside the witness
	// replays behind chains (see WithDebugStacks).
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
	// Err records a run-limit error (tick limit), if any.
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
	// in pick order. Populated only under WithRunFeedback — with the
	// token it rebuilds the run's Feedback (RunResult.Feedback), which
	// is how a fleet coordinator folds remote runs in — and stripped by
	// a Fold without that option.
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
// cancelled or expired context stops the exploration promptly. Run
// returns only after every worker has exited, never abandoning one,
// with ctx's error and a partial Result covering the completed run
// prefix (truncated runs are discarded: their fingerprints and warning
// sets describe an incomplete execution and would poison the
// always/sometimes classification).
//
// Panics: a panicking target never crashes the process — not even with
// WithWorkers(n > 1), where runs execute on spawned worker goroutines.
// The panic is recovered at the run boundary, the exploration shuts
// down along the cancellation path, and Run returns the panic as an
// error with a partial Result. A panic in the strategy or the progress
// callback, which may also run on a spawned worker, is not the
// target's: the exploration shuts down the same way, and once every
// worker has exited Run re-panics with the original value on the
// caller's goroutine.
func Run(ctx context.Context, t Target, opts ...Option) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	f := NewFold(t, opts...)
	err := runPool(ctx, t, f)
	return f.Finish(err), err
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
// (context bound, metrics) is fixed for the exploration.
func workerExtras(ctx context.Context, proxy *schedProxy, cfg *config) []asyncg.Option {
	extra := []asyncg.Option{asyncg.WithScheduler(proxy)}
	if ctx != nil {
		extra = append(extra, asyncg.WithContext(ctx))
	}
	if cfg.RunMetrics {
		extra = append(extra, asyncg.WithMetrics())
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
// here — the one place every execution path shares, including the
// pool's spawned workers — and surfaced as err; the pool treats it as
// fatal to the exploration, so a panic fails the caller's job without
// ever killing a worker goroutine (or the process).
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
	in.summarize(&rr, report, rerr)
	if report == nil {
		return rr, nil, nil
	}
	return rr, report.Metrics, nil
}

// summarize copies one run's outcome into rr: its limit error, tick
// count, fingerprint, and sorted, deduplicated warning keys.
func (in *intern) summarize(rr *RunResult, report *asyncg.Report, err error) {
	if err != nil {
		rr.Err = err.Error()
	}
	if report == nil {
		return
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
}

// Replay runs the target once under a recorded schedule token; extra
// options (tracing, metrics, asyncg.WithDebugStacks) ride along, so a
// witness schedule can be re-examined with the full observability stack
// attached. Every warning of the replayed report is annotated with its
// provenance: ReplayToken is stamped with token and Chain with the
// async causal chain walked back from the warning's graph node.
func Replay(t Target, token string, extra ...asyncg.Option) (RunResult, *asyncg.Report, error) {
	report, runErr, err := replay(t, token, extra)
	if err != nil {
		return RunResult{}, nil, err
	}
	annotateReport(report, token)
	rr := RunResult{Token: token}
	newIntern().summarize(&rr, report, runErr)
	return rr, report, nil
}

// replay is the replay behind Replay and chains: one run of t on a cold
// runtime under the schedule token, and nothing else computed — Replay
// annotates every warning of the report, chainsForToken walks one chain
// per warning key. err reports a malformed token; runErr is the run's
// own limit error, if any.
func replay(t Target, token string, extra []asyncg.Option) (report *asyncg.Report, runErr, err error) {
	sched, err := ParseToken(token)
	if err != nil {
		return nil, nil, err
	}
	ch := newChooser(AllKinds(), playbackNext(sched.Picks))
	report, runErr = t.runFresh(append([]asyncg.Option{asyncg.WithScheduler(ch)}, extra...)...)
	return report, runErr, nil
}

// Finalize re-derives a Result's aggregate sections — the fingerprint
// census, the warning and category classification, and NewGraphs — from
// its Runs, replacing whatever was there. Fold.Finish runs it for every
// exploration, local or fleet; aggregation is a pure function of the
// ordered run records and the target's Expect set.
func Finalize(t Target, res *Result) {
	res.Fingerprints, res.Warnings, res.Categories = nil, nil, nil
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
	res.NewGraphs = len(res.Fingerprints)
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
