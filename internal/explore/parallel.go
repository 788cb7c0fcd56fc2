package explore

import (
	"context"
	"sync"

	"asyncg/internal/trace"
)

// This file implements the engine's worker pool: one loop drives every
// strategy at every worker count, and there is no coordinator
// goroutine.
//
// Every run is an isolated single-threaded simulation, and nothing
// about a run's RunResult depends on cross-run state. That makes the
// schedule space embarrassingly parallel. The coordination that is left
// — asking the strategy what to run next, and reassembling results in
// run-index order so the aggregate Result is byte-identical to a
// sequential exploration — is shared state under one mutex, which the
// workers enter themselves: a worker takes the lock to plan its next
// run, executes the run (Reset, Run, fingerprint) outside it, and takes
// it again to hand the result in and plan the next one. Run's caller
// is worker 0, so WithWorkers(1) starts no goroutine at all.
//
// Workers are persistent: each one owns one Runner for the whole
// exploration (Target.NewRunner when the target provides it, the
// fresh-runtime fallback otherwise) and Resets it between runs, so the
// session's allocation set — event loop queues, graph nodes, detector
// state, emitter and promise pools — is paid for once per worker, not
// once per schedule. A worker Resets its runner once more after its
// last run: an AcmeAir runner then hands its runtime to the idle list
// that the next exploration's runners take theirs from (see
// acmeAirIdle), so a stream of explorations pays for it once. The Reset
// contract (asyncg.Session.Reset) makes a
// reused runtime observationally identical to a fresh one, which is
// what keeps the worker-count and runner-reuse invariants equivalent:
// the Result is byte-identical at any worker count, with or without
// reusable runners.
//
// The lock guards the strategy, the plan and emit cursors, the
// in-flight count, the buffer of runs completed out of order, the
// chooser pool, the Fold building the Result, and the halt state.
// Strategies plan from what they have observed (the exhaustive frontier
// grows out of completed runs; the coverage corpus accumulates
// new-fingerprint schedules), so Observe is called strictly in
// run-index order: by whichever worker hands in the run that extends
// the emitted prefix. That worker folds the run in (see Fold: the
// NewGraph census, Observe, the CoverageReporter stats, the metrics
// merge, and the Progress callback) and recycles its chooser; a run
// completing early waits in pending until its predecessors are in. The
// lock is held across the strategy's and the callback's code on
// purpose: serializing those calls in run-index order is its job, so a
// slow callback delays the next plan, never a run already executing.
// The built-in strategies' share of the lock is small: a seeded walk is
// a pooled PCG reseeded at Plan, a pair of stores (see walk).
//
// When a strategy needs feedback that is still in flight it answers
// PlanWait, and the worker waits on a condition variable until the next
// hand-in — the sliding window that reproduces the sequential schedule
// exactly, whatever the completion interleaving. A PlanWait with
// nothing in flight can never be answered, so it ends planning instead.
//
// Choosers are pooled under the lock: a recording is handed out at
// Plan and recycled after its feedback has been consumed (Observe
// called, WithRunFeedback copies taken), never earlier — out-of-order
// completions park in pending with their recordings intact. The pool
// is capped at 2×Workers.
//
// Cancellation discipline: the context is checked under the lock
// before every Plan and at every hand-in; once it fires, no new run is
// planned, in-flight runs stop at their next tick boundary (the
// loop-level interrupt), and Run returns only after every worker has
// exited — cancellation never abandons a goroutine. Runs handed in
// after the cancel are discarded as possibly truncated, so the partial
// Result covers only complete runs.
//
// Panic discipline: a panicking target is recovered inside runOnce and
// handed in as doneRun.err. The first such error cancels the pool's
// internal context — stopping planning and interrupting in-flight runs
// exactly like an external cancel — and is returned after the workers
// exit, so a target panic fails the exploration, not the process. A
// worker whose runner panicked replaces it with a fresh one: the old
// runtime's state is unknowable mid-panic. The strategy and the
// Progress callback run on whichever worker holds the lock, which may
// be a spawned goroutine no caller can recover on. So every worker
// recovers any other panic, records the first one, and halts the pool
// the same way; once every worker has exited, Run re-panics with that
// value on the caller's goroutine, where it would surface in a
// sequential exploration.

// doneRun is one finished schedule a worker hands in; ch holds the
// recording (picks, domains, independence flags) that becomes the
// strategy's feedback.
type doneRun struct {
	idx  int
	rr   RunResult
	snap *trace.Snapshot
	ch   *chooser
	err  error // a recovered target panic; fatal to the exploration
}

// pool is the coordinator state the workers share. The fields above mu
// are fixed for the exploration; mu guards the rest.
type pool struct {
	t    Target
	cfg  *config
	fold *Fold
	ctx  context.Context
	stop context.CancelFunc

	mu       sync.Mutex
	handedIn sync.Cond // on mu; wakes workers waiting out PlanWait
	nextPlan int
	nextEmit int
	inFlight int // planned runs not yet handed in
	planDone bool
	pending  map[int]doneRun
	choosers []*chooser
	err      error // the first target panic
	panicVal any   // the first panic outside a run (recover never yields nil)
}

// runPool executes the exploration f was started with, up to Workers
// runs in flight, the caller being one of the workers, and folds every
// run into f in index order. It starts no more workers than there are
// runs: a worker past the run budget would never plan one.
func runPool(ctx context.Context, t Target, f *Fold) error {
	// The internal cancel lets a panic stop the exploration the same way
	// an external cancel does (halt planning, interrupt in-flight runs
	// at their next tick boundary).
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	p := &pool{t: t, cfg: f.cfg, fold: f, ctx: ctx, stop: stop, pending: make(map[int]doneRun)}
	p.handedIn.L = &p.mu

	var wg sync.WaitGroup
	for w := 1; w < min(p.cfg.Workers, p.cfg.Runs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	p.work()
	wg.Wait()
	if p.panicVal != nil {
		panic(p.panicVal)
	}
	if p.err != nil {
		return p.err
	}
	return ctx.Err()
}

// work is one worker: plan a run, execute it, hand it in, until
// planning ends or the exploration halts.
func (p *pool) work() {
	defer func() {
		if v := recover(); v != nil {
			p.fail(v)
		}
	}()
	runner := p.t.runner()
	in := newIntern()
	proxy := &schedProxy{}
	extras := workerExtras(p.ctx, proxy, p.cfg)
	idx, ch, ok := p.next(nil)
	for ok {
		runner.Reset() // no-op on a cold runner
		proxy.ch = ch
		rr, snap, err := runOnce(p.ctx, runner.Run, idx, ch, extras, p.cfg, in)
		if err != nil {
			// The runtime is mid-panic state; start over.
			runner = p.t.runner()
		}
		done := doneRun{idx: idx, rr: rr, snap: snap, ch: ch, err: err}
		idx, ch, ok = p.next(&done)
	}
	runner.Reset() // hands a shared runtime back for the next exploration
}

// next hands in the worker's finished run, if any, and plans its next
// one, under one acquisition of the lock.
func (p *pool) next(d *doneRun) (idx int, ch *chooser, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d != nil {
		p.handIn(d)
	}
	return p.plan()
}

// halted reports that the exploration stops planning and emitting: an
// external cancel, or a panic, which cancels the pool's context too.
func (p *pool) halted() bool { return p.ctx.Err() != nil }

// plan asks the strategy for the next run, waiting while it answers
// PlanWait with runs still in flight; ok is false once planning has
// ended or the exploration has halted. Callers hold mu.
func (p *pool) plan() (idx int, ch *chooser, ok bool) {
	for !p.planDone && p.nextPlan < p.cfg.Runs && !p.halted() {
		next, state := p.cfg.Strategy.Plan(p.nextPlan)
		if state == PlanReady {
			idx = p.nextPlan
			p.nextPlan++
			p.inFlight++
			return idx, p.takeChooser(next), true
		}
		if state == PlanWait && p.inFlight > 0 {
			p.handedIn.Wait()
			continue
		}
		// PlanDone, or a PlanWait that nothing in flight can answer: a
		// correct strategy only waits on in-flight feedback, so treat it
		// as done rather than livelock.
		p.planDone = true
		p.handedIn.Broadcast()
	}
	return 0, nil, false
}

// handIn takes back a finished run and, unless the exploration has
// halted, emits every run that is now next in index order. Callers
// hold mu.
func (p *pool) handIn(d *doneRun) {
	p.inFlight--
	p.handedIn.Broadcast()
	if d.err != nil && p.err == nil {
		p.err = d.err
		p.stop()
	}
	if p.halted() {
		return // possibly truncated; the partial Result ends before it
	}
	if d.idx != p.nextEmit {
		p.pending[d.idx] = *d
		return
	}
	p.emit(d)
	for {
		nd, ok := p.pending[p.nextEmit]
		if !ok {
			return
		}
		delete(p.pending, p.nextEmit)
		p.emit(&nd)
	}
}

// emit folds the next run in index order into the Result, its
// chooser's recording standing in for the WithRunFeedback record, and
// recycles the chooser. Callers hold mu.
func (p *pool) emit(nd *doneRun) {
	p.nextEmit++
	rr := nd.rr
	rr.Domains, rr.Independent = nd.ch.domains, nd.ch.indep
	p.fold.add(rr, nd.ch.picks, nd.snap)
	p.putChooser(nd.ch)
}

// fail records the first panic raised on a worker outside a run and
// halts the exploration; Run re-panics with it once every worker has
// exited.
func (p *pool) fail(v any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.panicVal == nil {
		p.panicVal = v
	}
	p.stop()
	p.handedIn.Broadcast()
}

func (p *pool) takeChooser(next PickFunc) *chooser {
	if n := len(p.choosers); n > 0 {
		ch := p.choosers[n-1]
		p.choosers = p.choosers[:n-1]
		ch.reset(next)
		return ch
	}
	return newChooser(p.cfg.Kinds, next)
}

func (p *pool) putChooser(ch *chooser) {
	if len(p.choosers) < 2*p.cfg.Workers {
		p.choosers = append(p.choosers, ch)
	}
}
