package eventloop

import (
	"errors"
	"time"

	"asyncg/internal/vm"
)

// Limit errors returned by Run. A tick-limit stop is the expected way to
// truncate non-terminating programs (such as the paper's recursive
// nextTick bug in Fig. 1, whose Async Graph "grows infinitely").
var (
	ErrTickLimit = errors.New("eventloop: tick limit reached")
	ErrReentrant = errors.New("eventloop: Run called while loop is running")
	ErrStopped   = errors.New("eventloop: stopped by program")
)

// Options configures a Loop.
type Options struct {
	// TickLimit bounds the number of top-level callback executions
	// (ticks). 0 means DefaultTickLimit. Run returns ErrTickLimit when
	// the bound is hit; the work done so far (and its Async Graph)
	// remains observable.
	TickLimit int
	// Scheduler resolves scheduling choice points (I/O completion
	// order, same-deadline timer ties, latency jitter). nil keeps the
	// historical deterministic order. See Scheduler and the explore
	// package.
	Scheduler Scheduler
	// Interrupt, when set, is polled at every tick boundary (before the
	// next top-level callback dispatches) and at the top of every loop
	// iteration. A non-nil return stops the loop: Run returns that error
	// and the work done so far remains observable, exactly like a limit
	// stop. asyncg.WithContext wires a context.Context's Err here, which
	// is how job deadlines and client-disconnect cancellation reach the
	// simulation. The check never perturbs scheduling, so runs that are
	// not interrupted are byte-identical with and without it.
	Interrupt func() error
}

// DefaultTickLimit is the tick bound applied when Options.TickLimit is 0.
const DefaultTickLimit = 1_000_000

// IterationCost is the virtual time charged per event-loop iteration,
// modelling the real duration of a loop turn. Without it a recursive
// setImmediate would freeze the virtual clock and starve timers, which
// real Node does not do.
const IterationCost = 100 * time.Microsecond

// UncaughtError records a simulated exception that escaped a top-level
// callback.
type UncaughtError struct {
	// Thrown is the escaped exception value.
	Thrown *vm.Thrown
	// Phase is the loop phase whose callback threw.
	Phase Phase
	// Tick is the 1-based tick index of the throwing callback.
	Tick int
}

// Error reports the thrown value's message, making UncaughtError an
// error.
func (u UncaughtError) Error() string { return u.Thrown.Error() }

// Loop is the event-loop simulator. Create one with New, schedule the
// main program with Run, and interact with it only from callbacks running
// on it. All methods must be called from the loop goroutine (or before
// Run starts).
type Loop struct {
	probes vm.Probes
	opts   Options

	now   time.Duration
	phase Phase
	depth int

	nextTickQ    fifo
	promiseQ     fifo
	timers       timerHeap
	timersByID   map[uint64]*timer
	activeTimers int

	immediates      []*immediate
	immHead         int
	immediatesByID  map[uint64]*immediate
	activeImmediate int

	io     ioHeap
	closeQ fifo

	timerSeq  uint64 // ids for timers and immediates
	orderSeq  uint64 // scheduling tie-breakers
	regSeq    uint64 // callback-registration sequence (probe protocol)
	trigSeq   uint64 // trigger sequence (probe protocol)
	objSeq    uint64 // object identity (emitters, promises, sockets)
	ioKeySeq  uint64 // I/O independence keys (partial-order reduction)
	iteration uint64 // loop-iteration count (probe protocol)

	ticksRun int
	uncaught []UncaughtError
	stopErr  error
	running  bool

	// Free lists and scratch buffers that survive Reset, so one
	// allocation set serves a whole stream of runs (the zero-allocation
	// run path). callInfo is the single FunctionEnter payload: probe
	// dispatch completes before the callback body runs, so one scratch
	// struct serves arbitrarily nested invocations.
	callInfo     vm.CallInfo
	dispFree     []*vm.Dispatch
	evFree       []*vm.APIEvent
	timerFree    []*timer
	immFree      []*immediate
	ioFree       []*ioEvent
	dueScratch   []*timer
	readyScratch []*ioEvent
	keyScratch   []uint64

	resetHooks []func()
	substrates map[any]any
}

// immediate is a pending setImmediate registration. disp backs
// task.dispatch so a pooled immediate carries its dispatch inline.
type immediate struct {
	task
	id      uint64
	cleared bool
	disp    vm.Dispatch
}

// New creates a loop with the given options.
func New(opts Options) *Loop {
	if opts.TickLimit == 0 {
		opts.TickLimit = DefaultTickLimit
	}
	return &Loop{
		opts:           opts,
		phase:          PhaseMain,
		timersByID:     make(map[uint64]*timer),
		immediatesByID: make(map[uint64]*immediate),
	}
}

// Probes exposes the probe dispatcher so tools can attach and detach
// hooks — before Run or from inside callbacks (AsyncG is pluggable at
// runtime).
func (l *Loop) Probes() *vm.Probes { return &l.probes }

// SetScheduler swaps the scheduling-choice resolver. Reusable sessions
// install a fresh recording per run between Reset and Run; the rest of
// Options stays fixed at construction. Must not be called mid-run.
func (l *Loop) SetScheduler(s Scheduler) { l.opts.Scheduler = s }

// SetInterrupt swaps the tick-boundary interrupt poll (see
// Options.Interrupt). Must not be called mid-run.
func (l *Loop) SetInterrupt(f func() error) { l.opts.Interrupt = f }

// Reset returns the loop to its cold-start state while retaining its
// allocation set: queues, heaps, sequence counters, virtual time, and
// recorded errors are cleared, but free lists, scratch buffers, attached
// probes, substrate state, and the configured Options survive. A
// freshly-Reset loop behaves byte-identically to a newly-constructed one
// under the same program. Reset must not be called while Run is active;
// registered reset hooks (OnReset) fire last, in registration order.
func (l *Loop) Reset() {
	// Recycle everything still queued so the free lists stay warm even
	// after a truncated (limit-stopped or interrupted) run.
	for {
		t := l.timers.peek()
		if t == nil {
			break
		}
		l.recycleTimer(l.timers.removeMin())
	}
	for {
		e := l.io.peek()
		if e == nil {
			break
		}
		l.recycleIOEvent(l.io.removeMin())
	}
	for i := l.immHead; i < len(l.immediates); i++ {
		if im := l.immediates[i]; im != nil {
			l.recycleImmediate(im)
		}
		l.immediates[i] = nil
	}
	l.immediates = l.immediates[:0]
	l.immHead = 0
	l.activeImmediate = 0
	clear(l.immediatesByID)
	clear(l.timersByID)
	l.activeTimers = 0
	l.drainRecycle(&l.nextTickQ)
	l.drainRecycle(&l.promiseQ)
	l.drainRecycle(&l.closeQ)

	l.now = 0
	l.phase = PhaseMain
	l.depth = 0
	l.timerSeq, l.orderSeq, l.regSeq, l.trigSeq, l.objSeq, l.ioKeySeq = 0, 0, 0, 0, 0, 0
	l.iteration = 0
	l.ticksRun = 0
	for i := range l.uncaught {
		l.uncaught[i] = UncaughtError{}
	}
	l.uncaught = l.uncaught[:0]
	l.stopErr = nil
	l.running = false
	l.callInfo = vm.CallInfo{}

	for _, hook := range l.resetHooks {
		hook()
	}
}

// OnReset registers a hook invoked at the end of every Reset, after the
// loop's own state is cleared. Substrate layers (network, DB, file
// system, promise arenas) use it to return their per-run state to
// cold-start while keeping their allocation pools.
func (l *Loop) OnReset(hook func()) {
	l.resetHooks = append(l.resetHooks, hook)
}

// Substrate returns per-loop auxiliary state registered under key,
// creating it with init on first use. The state persists across Reset —
// init typically registers an OnReset hook for the per-run portion.
// Library layers use it for per-loop allocation arenas without the loop
// knowing their types.
func (l *Loop) Substrate(key any, init func() any) any {
	if s, ok := l.substrates[key]; ok {
		return s
	}
	if l.substrates == nil {
		l.substrates = make(map[any]any)
	}
	s := init()
	l.substrates[key] = s
	return s
}

// NewDispatch returns a cleared dispatch from the loop's free list,
// marked Pooled. The loop reclaims it automatically after the top-level
// callback it is attached to finishes executing; for dispatches used
// with a direct Invoke, the caller returns it with RecycleDispatch.
func (l *Loop) NewDispatch() *vm.Dispatch {
	if n := len(l.dispFree); n > 0 {
		d := l.dispFree[n-1]
		l.dispFree = l.dispFree[:n-1]
		return d
	}
	return &vm.Dispatch{Pooled: true}
}

// RecycleDispatch clears a pooled dispatch and returns it to the free
// list. Only dispatches obtained from NewDispatch may be recycled, and
// only once their callback execution (FunctionExit included) is over.
func (l *Loop) RecycleDispatch(d *vm.Dispatch) {
	if d == nil || !d.Pooled {
		return
	}
	*d = vm.Dispatch{Pooled: true}
	l.dispFree = append(l.dispFree, d)
}

// BorrowAPIEvent returns a cleared probe event from the loop's free
// list. Emitting layers fill it, pass it to EmitAPIEvent, and hand it
// back with ReturnAPIEvent once the hooks have run — hooks copy what
// they keep (see vm.Hooks), so the event is single-dispatch scratch.
func (l *Loop) BorrowAPIEvent() *vm.APIEvent {
	if n := len(l.evFree); n > 0 {
		ev := l.evFree[n-1]
		l.evFree = l.evFree[:n-1]
		return ev
	}
	return &vm.APIEvent{}
}

// ReturnAPIEvent clears ev and returns it to the free list; the caller
// must not touch it afterwards.
func (l *Loop) ReturnAPIEvent(ev *vm.APIEvent) {
	*ev = vm.APIEvent{}
	l.evFree = append(l.evFree, ev)
}

// drainRecycle empties a task queue, returning pooled dispatches to the
// free list so truncated runs keep the pools warm.
func (l *Loop) drainRecycle(q *fifo) {
	for {
		t, ok := q.pop()
		if !ok {
			break
		}
		if d := t.dispatch; d != nil && d.Pooled {
			l.RecycleDispatch(d)
		}
	}
	q.reset()
}

// recycleTimer clears a retired timer and returns it to the free list.
func (l *Loop) recycleTimer(t *timer) {
	*t = timer{}
	l.timerFree = append(l.timerFree, t)
}

// borrowTimer returns a zeroed timer from the free list.
func (l *Loop) borrowTimer() *timer {
	if n := len(l.timerFree); n > 0 {
		t := l.timerFree[n-1]
		l.timerFree = l.timerFree[:n-1]
		return t
	}
	return &timer{}
}

// recycleImmediate clears a retired immediate and returns it to the pool.
func (l *Loop) recycleImmediate(im *immediate) {
	*im = immediate{}
	l.immFree = append(l.immFree, im)
}

// borrowImmediate returns a zeroed immediate from the free list.
func (l *Loop) borrowImmediate() *immediate {
	if n := len(l.immFree); n > 0 {
		im := l.immFree[n-1]
		l.immFree = l.immFree[:n-1]
		return im
	}
	return &immediate{}
}

// recycleIOEvent clears a delivered I/O event and returns it to the pool.
func (l *Loop) recycleIOEvent(e *ioEvent) {
	*e = ioEvent{}
	l.ioFree = append(l.ioFree, e)
}

// borrowIOEvent returns a zeroed I/O event from the free list.
func (l *Loop) borrowIOEvent() *ioEvent {
	if n := len(l.ioFree); n > 0 {
		e := l.ioFree[n-1]
		l.ioFree = l.ioFree[:n-1]
		return e
	}
	return &ioEvent{}
}

// Now returns the current virtual time.
func (l *Loop) Now() time.Duration { return l.now }

// Work advances virtual time by d, modelling synchronous computation
// ("performSomeComputation()" in the paper's Fig. 1).
func (l *Loop) Work(d time.Duration) {
	if d > 0 {
		l.now += d
	}
}

// Phase returns the phase of the callback currently executing.
func (l *Loop) Phase() Phase { return l.phase }

// Tick returns the number of top-level callbacks executed so far.
func (l *Loop) Tick() int { return l.ticksRun }

// Uncaught returns the exceptions that escaped top-level callbacks.
func (l *Loop) Uncaught() []UncaughtError { return l.uncaught }

// Stop makes the loop wind down after the current callback; Run returns
// ErrStopped. Pending work is abandoned.
func (l *Loop) Stop() {
	if l.stopErr == nil {
		l.stopErr = ErrStopped
	}
}

// Identity and sequence generators used by the promise, emitter and I/O
// layers to participate in the probe protocol.

// NextObjID allocates a fresh runtime-object identity.
func (l *Loop) NextObjID() uint64 { l.objSeq++; return l.objSeq }

// NextRegSeq allocates a fresh callback-registration sequence number.
func (l *Loop) NextRegSeq() uint64 { l.regSeq++; return l.regSeq }

// NextTrigSeq allocates a fresh trigger sequence number.
func (l *Loop) NextTrigSeq() uint64 { l.trigSeq++; return l.trigSeq }

// NextIOKey allocates a fresh I/O independence key (for
// ScheduleIOKeyedAt). Keys live in their own sequence — deliberately not
// NextObjID, whose values feed graph object identity — so attaching
// independence metadata never perturbs fingerprints.
func (l *Loop) NextIOKey() uint64 { l.ioKeySeq++; return l.ioKeySeq }

// EmitAPIEvent announces an async-API call to attached hooks.
func (l *Loop) EmitAPIEvent(ev *vm.APIEvent) {
	if l.probes.Active() {
		l.probes.APICall(ev)
	}
}

// Invoke performs a nested synchronous call: probes see functionEnter and
// functionExit, and a simulated exception is returned rather than
// propagated. Callers that need JS throw-propagation semantics re-raise
// the returned Thrown with panic.
func (l *Loop) Invoke(fn *vm.Function, args []vm.Value, dispatch *vm.Dispatch) (vm.Value, *vm.Thrown) {
	l.depth++
	active := l.probes.Active()
	if active {
		// callInfo is single-dispatch scratch: FunctionEnter completes
		// before the callback body runs, so nested invocations may reuse
		// it freely (hooks copy what they keep, see vm.Hooks).
		l.callInfo.Phase = string(l.phase)
		l.callInfo.TopLevel = l.depth == 1
		l.callInfo.Dispatch = dispatch
		l.probes.FunctionEnter(fn, &l.callInfo)
	}
	var ret vm.Value
	thrown := vm.CatchThrown(func() { ret = fn.Invoke(args) })
	if active {
		l.probes.FunctionExit(fn, ret, thrown)
	}
	l.depth--
	return ret, thrown
}

// invokeTop dispatches one top-level callback in the given phase,
// enforcing the tick limit and recording uncaught exceptions. An
// uncaught exception does not stop the loop: analysis continues, like a
// debugger with an uncaughtException handler.
func (l *Loop) invokeTop(t task, phase Phase) {
	if d := t.dispatch; d != nil && d.Pooled {
		// A pooled dispatch is consumed by its dispatch attempt: hooks may
		// read it until FunctionExit returns, nothing retains it after.
		defer l.RecycleDispatch(d)
	}
	if l.stopErr != nil {
		return
	}
	if l.checkInterrupt() {
		return
	}
	if l.ticksRun >= l.opts.TickLimit {
		l.stopErr = ErrTickLimit
		return
	}
	l.ticksRun++
	prev := l.phase
	l.phase = phase
	ret, thrown := l.Invoke(t.fn, t.args, t.dispatch)
	l.phase = prev
	if t.after != nil {
		t.after(ret, thrown)
		thrown = nil // consumed by the completion hook
	}
	if thrown != nil {
		l.uncaught = append(l.uncaught, UncaughtError{Thrown: thrown, Phase: phase, Tick: l.ticksRun})
	}
}

// checkInterrupt polls Options.Interrupt and converts a non-nil error
// into a loop stop. It reports whether the loop is (now) stopping.
func (l *Loop) checkInterrupt() bool {
	if l.opts.Interrupt == nil {
		return false
	}
	if err := l.opts.Interrupt(); err != nil {
		if l.stopErr == nil {
			l.stopErr = err
		}
		return true
	}
	return false
}

// drainMicro runs microtasks to exhaustion: all nextTick jobs first, then
// promise jobs, re-checking the nextTick queue after every promise job
// (Fig. 2(b): nextTick has priority, and the two queues can schedule each
// other). Recursive micro-scheduling therefore starves the macro phases,
// which is exactly the Fig. 1 bug.
func (l *Loop) drainMicro() {
	for l.stopErr == nil {
		if t, ok := l.nextTickQ.pop(); ok {
			l.invokeTop(t, PhaseNextTick)
			continue
		}
		if t, ok := l.promiseQ.pop(); ok {
			l.invokeTop(t, PhasePromise)
			continue
		}
		return
	}
}

// hasWork reports whether any queue can still produce a callback.
func (l *Loop) hasWork() bool {
	return l.nextTickQ.len() > 0 ||
		l.promiseQ.len() > 0 ||
		l.activeTimers > 0 ||
		l.io.Len() > 0 ||
		l.activeImmediate > 0 ||
		l.closeQ.len() > 0
}

// peekActiveTimer returns the earliest non-cleared timer, discarding
// cleared entries lazily.
func (l *Loop) peekActiveTimer() *timer {
	for {
		t := l.timers.peek()
		if t == nil {
			return nil
		}
		if t.cleared {
			l.recycleTimer(l.timers.removeMin())
			continue
		}
		return t
	}
}

// advanceClock jumps virtual time to the next scheduled deadline when
// nothing is runnable right now, modelling the loop blocking in poll.
func (l *Loop) advanceClock() {
	if l.activeImmediate > 0 || l.closeQ.len() > 0 {
		return // runnable this iteration at the current time
	}
	var next time.Duration = -1
	if t := l.peekActiveTimer(); t != nil {
		next = t.due
	}
	if e := l.io.peek(); e != nil {
		if next < 0 || e.readyAt < next {
			next = e.readyAt
		}
	}
	if next > l.now {
		l.now = next
	}
}

// Run executes main as the program's first tick ("t1: main"), then
// processes the event loop until no work remains or a limit stops it.
func (l *Loop) Run(main *vm.Function, args ...vm.Value) error {
	if l.running {
		return ErrReentrant
	}
	l.running = true
	defer func() { l.running = false }()

	d := l.NewDispatch()
	d.API = "main"
	l.invokeTop(task{fn: main, args: args, dispatch: d}, PhaseMain)
	l.drainMicro()
	for l.stopErr == nil && l.hasWork() {
		if l.checkInterrupt() {
			break
		}
		l.iteration++
		l.now += IterationCost
		l.advanceClock()
		if l.probes.WantLoop() {
			l.probes.LoopIteration(&vm.LoopInfo{
				Iteration: l.iteration, Now: l.now, Depths: l.Depths(),
			})
		}
		l.runTimerPhase()
		l.runIOPhase()
		l.runImmediatePhase()
		l.runClosePhase()
	}
	if l.stopErr == ErrStopped {
		return nil
	}
	return l.stopErr
}

// phaseEnter announces a macro-phase entry when probes subscribe and the
// phase has runnable work; it reports whether a matching phaseExit is
// owed. Skipping idle phases keeps trace volume proportional to work.
func (l *Loop) phaseEnter(phase Phase, runnable int) bool {
	if runnable == 0 || !l.probes.WantPhases() {
		return false
	}
	l.probes.PhaseEnter(&vm.PhaseInfo{
		Phase: string(phase), Now: l.now, Iteration: l.iteration, Runnable: runnable,
	})
	return true
}

// phaseExit closes a phase span opened by phaseEnter.
func (l *Loop) phaseExit(phase Phase, runnable int) {
	l.probes.PhaseExit(&vm.PhaseInfo{
		Phase: string(phase), Now: l.now, Iteration: l.iteration, Runnable: runnable,
	})
}

// runTimerPhase executes every timer whose deadline has passed, in
// (deadline, registration) order. Timers scheduled during the phase run
// in a later iteration, even if already due.
func (l *Loop) runTimerPhase() {
	due := l.dueScratch[:0]
	for {
		t := l.peekActiveTimer()
		if t == nil || t.due > l.now {
			break
		}
		due = append(due, l.timers.removeMin())
	}
	l.permuteTimerTies(due)
	span := l.phaseEnter(PhaseTimer, len(due))
	wantFires := l.probes.WantTimers()
	for i, t := range due {
		due[i] = nil
		if l.stopErr != nil {
			// Not executed: put it back so hasWork stays truthful.
			l.timers.add(t)
			continue
		}
		if t.cleared { // cleared by an earlier callback in this phase
			l.recycleTimer(t)
			continue
		}
		if wantFires {
			l.probes.TimerFired(&vm.TimerFire{
				ID: t.id, Scheduled: t.due, Fired: l.now, Interval: t.interval > 0,
			})
		}
		l.invokeTop(t.task, PhaseTimer)
		if t.interval > 0 && !t.cleared {
			t.due += t.interval
			if t.due <= l.now {
				t.due = l.now + t.interval
			}
			l.timers.add(t)
		} else {
			l.activeTimers--
			delete(l.timersByID, t.id)
			l.recycleTimer(t)
		}
		l.drainMicro()
	}
	if span {
		l.phaseExit(PhaseTimer, len(due))
	}
	l.dueScratch = due[:0]
}

// permuteTimerTies lets the scheduler reorder timers that share one
// deadline. Only equal-deadline runs are permutable — deadline order
// itself is contractual.
func (l *Loop) permuteTimerTies(due []*timer) {
	if l.opts.Scheduler == nil {
		return
	}
	for lo := 0; lo < len(due); {
		hi := lo + 1
		for hi < len(due) && due[hi].due == due[lo].due {
			hi++
		}
		group := due[lo:hi]
		l.Permute(ChoiceTimerTie, len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
		lo = hi
	}
}

// runIOPhase delivers external events whose virtual arrival time has
// passed (the poll phase).
func (l *Loop) runIOPhase() {
	ready := l.readyScratch[:0]
	for {
		e := l.io.peek()
		if e == nil || e.readyAt > l.now {
			break
		}
		ready = append(ready, l.io.removeMin())
	}
	// The whole poll batch is permutable: the OS reports completions
	// that became ready by now in arbitrary order. The events'
	// independence keys ride along so a POR-aware scheduler can tell
	// when the batch commutes.
	var keys []uint64
	if l.opts.Scheduler != nil && len(ready) >= 2 {
		keys = l.keyScratch[:0]
		for _, e := range ready {
			keys = append(keys, e.key)
		}
		l.keyScratch = keys
	}
	l.PermuteKeyed(ChoiceIOOrder, keys, len(ready), func(i, j int) { ready[i], ready[j] = ready[j], ready[i] })
	span := l.phaseEnter(PhaseIO, len(ready))
	for i, e := range ready {
		ready[i] = nil
		if l.stopErr != nil {
			l.io.add(e)
			continue
		}
		l.invokeTop(e.task, PhaseIO)
		l.recycleIOEvent(e)
		l.drainMicro()
	}
	if span {
		l.phaseExit(PhaseIO, len(ready))
	}
	l.readyScratch = ready[:0]
}

// runImmediatePhase executes the immediates queued before the phase
// started; immediates scheduled by an immediate run next iteration
// (Node's check-phase snapshot semantics).
func (l *Loop) runImmediatePhase() {
	n := len(l.immediates)
	span := l.phaseEnter(PhaseImmediate, n-l.immHead)
	runnable := n - l.immHead
	for l.immHead < n {
		im := l.immediates[l.immHead]
		l.immediates[l.immHead] = nil
		l.immHead++
		if im.cleared {
			l.recycleImmediate(im)
			continue
		}
		l.activeImmediate--
		delete(l.immediatesByID, im.id)
		if l.stopErr != nil {
			l.recycleImmediate(im)
			continue
		}
		l.invokeTop(im.task, PhaseImmediate)
		l.recycleImmediate(im)
		l.drainMicro()
	}
	if l.immHead >= len(l.immediates) {
		l.immediates = l.immediates[:0]
		l.immHead = 0
	}
	if span {
		l.phaseExit(PhaseImmediate, runnable)
	}
}

// runClosePhase executes close handlers queued before the phase started.
func (l *Loop) runClosePhase() {
	n := l.closeQ.len()
	span := l.phaseEnter(PhaseClose, n)
	for i := 0; i < n; i++ {
		t, ok := l.closeQ.pop()
		if !ok {
			break
		}
		if l.stopErr != nil {
			continue
		}
		l.invokeTop(t, PhaseClose)
		l.drainMicro()
	}
	if span {
		l.phaseExit(PhaseClose, n)
	}
}
