package eventloop

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"asyncg/internal/loc"
	"asyncg/internal/vm"
)

// runTrace runs a program and returns the order in which labelled
// callbacks executed.
func runTrace(t *testing.T, opts Options, program func(l *Loop, log func(string))) ([]string, error) {
	t.Helper()
	l := New(opts)
	var trace []string
	log := func(s string) { trace = append(trace, s) }
	main := vm.NewFunc("main", func(args []vm.Value) vm.Value {
		program(l, log)
		return vm.Undefined
	})
	err := l.Run(main)
	return trace, err
}

func step(l *Loop, log func(string), label string) *vm.Function {
	return vm.NewFunc(label, func(args []vm.Value) vm.Value {
		log(label)
		return vm.Undefined
	})
}

func wantTrace(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace length = %d, want %d\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace[%d] = %q, want %q\n got: %v\nwant: %v", i, got[i], want[i], got, want)
		}
	}
}

func TestMicrotaskPriorityOverMacrotasks(t *testing.T) {
	// The motivating snippet of §III: promise, setTimeout, nextTick
	// registered in that order execute as nextTick, promise, timeout.
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		l.SchedulePromiseJob(step(l, log, "promise"), nil, nil, nil)
		l.SetTimeout(loc.Here(), step(l, log, "timeout"), 0)
		l.NextTick(loc.Here(), step(l, log, "nextTick"))
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTrace(t, trace, []string{"nextTick", "promise", "timeout"})
}

func TestNextTickBeatsPromiseEvenWhenRegisteredLater(t *testing.T) {
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		l.SchedulePromiseJob(step(l, log, "p1"), nil, nil, nil)
		l.SchedulePromiseJob(step(l, log, "p2"), nil, nil, nil)
		l.NextTick(loc.Here(), step(l, log, "t1"))
		l.NextTick(loc.Here(), step(l, log, "t2"))
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTrace(t, trace, []string{"t1", "t2", "p1", "p2"})
}

func TestMicrotasksScheduleEachOther(t *testing.T) {
	// A promise job scheduling a nextTick job: the nextTick job runs
	// before the next promise job (Fig. 2(b)).
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		first := vm.NewFunc("p1", func(args []vm.Value) vm.Value {
			log("p1")
			l.NextTick(loc.Here(), step(l, log, "tick-from-p1"))
			return vm.Undefined
		})
		l.SchedulePromiseJob(first, nil, nil, nil)
		l.SchedulePromiseJob(step(l, log, "p2"), nil, nil, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTrace(t, trace, []string{"p1", "tick-from-p1", "p2"})
}

func TestRecursiveNextTickStarvesTimersAndHitsTickLimit(t *testing.T) {
	// The Fig. 1 bug pattern: compute reschedules itself with nextTick,
	// so the timer never fires and the loop stops at the tick limit.
	var computeRuns int
	timerRan := false
	l := New(Options{TickLimit: 50})
	var compute *vm.Function
	compute = vm.NewFunc("compute", func(args []vm.Value) vm.Value {
		computeRuns++
		l.NextTick(loc.Here(), compute)
		return vm.Undefined
	})
	main := vm.NewFunc("main", func(args []vm.Value) vm.Value {
		l.SetTimeout(loc.Here(), vm.NewFunc("timer", func([]vm.Value) vm.Value {
			timerRan = true
			return vm.Undefined
		}), time.Millisecond)
		l.NextTick(loc.Here(), compute)
		return vm.Undefined
	})
	err := l.Run(main)
	if !errors.Is(err, ErrTickLimit) {
		t.Fatalf("err = %v, want ErrTickLimit", err)
	}
	if timerRan {
		t.Fatal("timer ran despite recursive nextTick starvation")
	}
	if computeRuns < 40 {
		t.Fatalf("computeRuns = %d, want ~49", computeRuns)
	}
}

func TestRecursiveSetImmediateDoesNotStarveTimers(t *testing.T) {
	// The Fig. 1 fix: with setImmediate the timer gets its turn.
	timerRan := false
	rounds := 0
	l := New(Options{TickLimit: 500})
	var compute *vm.Function
	compute = vm.NewFunc("compute", func(args []vm.Value) vm.Value {
		rounds++
		if !timerRan {
			l.SetImmediate(loc.Here(), compute)
		}
		return vm.Undefined
	})
	main := vm.NewFunc("main", func(args []vm.Value) vm.Value {
		l.SetTimeout(loc.Here(), vm.NewFunc("timer", func([]vm.Value) vm.Value {
			timerRan = true
			return vm.Undefined
		}), time.Millisecond)
		l.SetImmediate(loc.Here(), compute)
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if !timerRan {
		t.Fatal("timer never ran")
	}
	if rounds == 0 {
		t.Fatal("compute never ran")
	}
}

func TestTimerOrderByDeadlineThenRegistration(t *testing.T) {
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		l.SetTimeout(loc.Here(), step(l, log, "b-100"), 100*time.Millisecond)
		l.SetTimeout(loc.Here(), step(l, log, "a-50"), 50*time.Millisecond)
		l.SetTimeout(loc.Here(), step(l, log, "c-100"), 100*time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTrace(t, trace, []string{"a-50", "b-100", "c-100"})
}

func TestTimeoutOrderInversionWithInterveningWork(t *testing.T) {
	// §VI-A(c): setTimeout(foo, 101) registered before heavy work and
	// setTimeout(bar, 100) registered after it. foo's absolute deadline
	// is earlier, so the callback with the *larger* timeout runs first —
	// the unexpected order the paper's detector warns about.
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		l.SetTimeout(loc.Here(), step(l, log, "foo-101"), 101*time.Millisecond)
		l.Work(5 * time.Millisecond)
		l.SetTimeout(loc.Here(), step(l, log, "bar-100"), 100*time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTrace(t, trace, []string{"foo-101", "bar-100"})
}

func TestSetIntervalRepeatsUntilCleared(t *testing.T) {
	var runs int
	l := New(Options{})
	var id uint64
	main := vm.NewFunc("main", func(args []vm.Value) vm.Value {
		id = l.SetInterval(loc.Here(), vm.NewFunc("tick", func([]vm.Value) vm.Value {
			runs++
			if runs == 3 {
				l.ClearInterval(loc.Here(), id)
			}
			return vm.Undefined
		}), 10*time.Millisecond)
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Fatalf("interval ran %d times, want 3", runs)
	}
	if l.Now() < 30*time.Millisecond {
		t.Fatalf("virtual clock = %v, want >= 30ms", l.Now())
	}
}

func TestClearTimeoutPreventsExecution(t *testing.T) {
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		id := l.SetTimeout(loc.Here(), step(l, log, "cancelled"), 10*time.Millisecond)
		l.SetTimeout(loc.Here(), step(l, log, "kept"), 20*time.Millisecond)
		l.ClearTimeout(loc.Here(), id)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTrace(t, trace, []string{"kept"})
}

func TestClearImmediatePreventsExecution(t *testing.T) {
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		id := l.SetImmediate(loc.Here(), step(l, log, "cancelled"))
		l.SetImmediate(loc.Here(), step(l, log, "kept"))
		l.ClearImmediate(loc.Here(), id)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTrace(t, trace, []string{"kept"})
}

func TestImmediateScheduledByImmediateRunsNextIteration(t *testing.T) {
	// Node's check-phase snapshot: an immediate scheduled during the
	// immediate phase runs in the following loop iteration, after any
	// I/O that becomes ready.
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		outer := vm.NewFunc("outer", func(args []vm.Value) vm.Value {
			log("outer")
			l.SetImmediate(loc.Here(), step(l, log, "inner"))
			l.ScheduleIOAt(l.Now(), step(l, log, "io"), nil, nil)
			return vm.Undefined
		})
		l.SetImmediate(loc.Here(), outer)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTrace(t, trace, []string{"outer", "io", "inner"})
}

func TestIOPhaseRunsBeforeImmediatePhase(t *testing.T) {
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		l.SetImmediate(loc.Here(), step(l, log, "immediate"))
		l.ScheduleIOAt(l.Now(), step(l, log, "io"), nil, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTrace(t, trace, []string{"io", "immediate"})
}

func TestClosePhaseRunsLastInIteration(t *testing.T) {
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		l.ScheduleClose(step(l, log, "close"), nil, nil)
		l.SetImmediate(loc.Here(), step(l, log, "immediate"))
		l.ScheduleIOAt(l.Now(), step(l, log, "io"), nil, nil)
		l.SetTimeout(loc.Here(), step(l, log, "timer"), 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	// timer has a 1ms clamp, so the first iteration runs io, immediate,
	// close at t=0... except the clock only advances when nothing is
	// runnable. io(t=0) is ready, so iteration 1: io, immediate, close;
	// iteration 2 jumps to 1ms and runs the timer.
	wantTrace(t, trace, []string{"io", "immediate", "close", "timer"})
}

func TestClockJumpsToNextDeadlineWhenIdle(t *testing.T) {
	l := New(Options{})
	main := vm.NewFunc("main", func(args []vm.Value) vm.Value {
		l.SetTimeout(loc.Here(), vm.NewFunc("late", func([]vm.Value) vm.Value {
			return vm.Undefined
		}), 5*time.Second)
		return vm.Undefined
	})
	start := time.Now()
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("virtual clock did not jump; wall time %v", elapsed)
	}
	if l.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", l.Now())
	}
}

func TestUncaughtExceptionRecordedAndLoopContinues(t *testing.T) {
	l := New(Options{})
	ran := false
	main := vm.NewFunc("main", func(args []vm.Value) vm.Value {
		l.SetTimeout(loc.Here(), vm.NewFunc("boom", func([]vm.Value) vm.Value {
			vm.Throw("kaboom")
			return vm.Undefined
		}), time.Millisecond)
		l.SetTimeout(loc.Here(), vm.NewFunc("after", func([]vm.Value) vm.Value {
			ran = true
			return vm.Undefined
		}), 2*time.Millisecond)
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if len(l.Uncaught()) != 1 {
		t.Fatalf("uncaught = %d, want 1", len(l.Uncaught()))
	}
	if got := vm.ToString(l.Uncaught()[0].Thrown.Value); got != "kaboom" {
		t.Fatalf("uncaught value = %q", got)
	}
	if !ran {
		t.Fatal("loop stopped after an uncaught exception")
	}
}

func TestThrowInMainIsUncaught(t *testing.T) {
	l := New(Options{})
	main := vm.NewFunc("main", func(args []vm.Value) vm.Value {
		vm.Throw("main-crash")
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if len(l.Uncaught()) != 1 || l.Uncaught()[0].Phase != PhaseMain {
		t.Fatalf("uncaught = %+v", l.Uncaught())
	}
}

func TestStopEndsRunCleanly(t *testing.T) {
	l := New(Options{})
	count := 0
	main := vm.NewFunc("main", func(args []vm.Value) vm.Value {
		var again *vm.Function
		again = vm.NewFunc("again", func([]vm.Value) vm.Value {
			count++
			if count == 5 {
				l.Stop()
				return vm.Undefined
			}
			l.SetImmediate(loc.Here(), again)
			return vm.Undefined
		})
		l.SetImmediate(loc.Here(), again)
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestRunIsNotReentrant(t *testing.T) {
	l := New(Options{})
	var inner error
	main := vm.NewFunc("main", func(args []vm.Value) vm.Value {
		inner = l.Run(vm.NewFunc("nested", func([]vm.Value) vm.Value { return vm.Undefined }))
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(inner, ErrReentrant) {
		t.Fatalf("nested Run err = %v, want ErrReentrant", inner)
	}
}

func TestTickCountsTopLevelCallbacksOnly(t *testing.T) {
	l := New(Options{})
	main := vm.NewFunc("main", func(args []vm.Value) vm.Value {
		// A nested invocation must not count as a tick.
		nested := vm.NewFunc("nested", func([]vm.Value) vm.Value { return vm.Undefined })
		l.Invoke(nested, nil, nil)
		l.NextTick(loc.Here(), vm.NewFunc("t", func([]vm.Value) vm.Value { return vm.Undefined }))
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if l.Tick() != 2 { // main + nextTick
		t.Fatalf("Tick() = %d, want 2", l.Tick())
	}
}

func TestProbeEventsFireForSchedulingAPIs(t *testing.T) {
	l := New(Options{})
	rec := &recordingHooks{}
	l.Probes().Attach(rec)
	main := vm.NewFunc("main", func(args []vm.Value) vm.Value {
		l.NextTick(loc.Here(), vm.NewFunc("a", func([]vm.Value) vm.Value { return vm.Undefined }))
		id := l.SetTimeout(loc.Here(), vm.NewFunc("b", func([]vm.Value) vm.Value { return vm.Undefined }), time.Millisecond)
		l.ClearTimeout(loc.Here(), id)
		l.SetImmediate(loc.Here(), vm.NewFunc("c", func([]vm.Value) vm.Value { return vm.Undefined }))
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	apis := rec.apiNames()
	want := []string{APINextTick, APISetTimeout, APIClearTimeout, APISetImmediate}
	if len(apis) != len(want) {
		t.Fatalf("APIs = %v, want %v", apis, want)
	}
	for i := range want {
		if apis[i] != want[i] {
			t.Fatalf("APIs = %v, want %v", apis, want)
		}
	}
	// main, nextTick callback, immediate callback are top-level.
	if rec.topLevelEnters != 3 {
		t.Fatalf("topLevelEnters = %d, want 3", rec.topLevelEnters)
	}
	// Every enter has a matching exit.
	if rec.enters != rec.exits {
		t.Fatalf("enters=%d exits=%d", rec.enters, rec.exits)
	}
}

func TestDispatchCarriesRegistrationSeq(t *testing.T) {
	l := New(Options{})
	rec := &recordingHooks{}
	l.Probes().Attach(rec)
	main := vm.NewFunc("main", func(args []vm.Value) vm.Value {
		l.NextTick(loc.Here(), vm.NewFunc("cb", func([]vm.Value) vm.Value { return vm.Undefined }))
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	var regSeq uint64
	for _, ev := range rec.apiEvents {
		if ev.API == APINextTick {
			regSeq = ev.Regs[0].Seq
		}
	}
	if regSeq == 0 {
		t.Fatal("no registration seq recorded")
	}
	found := false
	for _, d := range rec.dispatches {
		if d.API == APINextTick && d.RegSeq == regSeq {
			found = true
		}
	}
	if !found {
		t.Fatalf("no dispatch carried regSeq %d: %+v", regSeq, rec.dispatches)
	}
}

func TestDetachedProbesSeeNothing(t *testing.T) {
	l := New(Options{})
	rec := &recordingHooks{}
	l.Probes().Attach(rec)
	l.Probes().Detach(rec)
	main := vm.NewFunc("main", func(args []vm.Value) vm.Value {
		l.NextTick(loc.Here(), vm.NewFunc("t", func([]vm.Value) vm.Value { return vm.Undefined }))
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if rec.enters != 0 || len(rec.apiEvents) != 0 {
		t.Fatalf("detached hook observed events: enters=%d apis=%d", rec.enters, len(rec.apiEvents))
	}
}

func TestAttachMidRunSeesOnlySubsequentEvents(t *testing.T) {
	l := New(Options{})
	rec := &recordingHooks{}
	main := vm.NewFunc("main", func(args []vm.Value) vm.Value {
		l.NextTick(loc.Here(), vm.NewFunc("before", func([]vm.Value) vm.Value {
			l.Probes().Attach(rec)
			l.NextTick(loc.Here(), vm.NewFunc("after", func([]vm.Value) vm.Value { return vm.Undefined }))
			return vm.Undefined
		}))
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if len(rec.apiEvents) != 1 || rec.apiEvents[0].API != APINextTick {
		t.Fatalf("apiEvents = %+v, want one nextTick", rec.apiEvents)
	}
	if rec.topLevelEnters != 1 {
		t.Fatalf("topLevelEnters = %d, want 1 (the 'after' callback)", rec.topLevelEnters)
	}
}

// recordingHooks is a minimal vm.Hooks for tests. Hook payloads are
// pooled scratch that the loop reclaims after each hook returns, so the
// recorder deep-copies what it keeps (the vm.Hooks contract).
type recordingHooks struct {
	enters, exits, topLevelEnters int
	apiEvents                     []vm.APIEvent
	dispatches                    []vm.Dispatch
	phases                        []string
}

func (r *recordingHooks) FunctionEnter(fn *vm.Function, info *vm.CallInfo) {
	r.enters++
	if info.TopLevel {
		r.topLevelEnters++
	}
	var d vm.Dispatch
	if info.Dispatch != nil {
		d = *info.Dispatch
	}
	r.dispatches = append(r.dispatches, d)
	r.phases = append(r.phases, info.Phase)
}

func (r *recordingHooks) FunctionExit(fn *vm.Function, ret vm.Value, thrown *vm.Thrown) {
	r.exits++
}

func (r *recordingHooks) APICall(ev *vm.APIEvent) {
	cp := *ev
	cp.Regs = append([]vm.Registration(nil), ev.Regs...)
	cp.Args = append([]vm.Value(nil), ev.Args...)
	cp.Related = append([]vm.ObjRef(nil), ev.Related...)
	r.apiEvents = append(r.apiEvents, cp)
}

func (r *recordingHooks) apiNames() []string {
	names := make([]string, len(r.apiEvents))
	for i, ev := range r.apiEvents {
		names[i] = ev.API
	}
	return names
}

func TestQueueMicrotaskPriority(t *testing.T) {
	// queueMicrotask shares the promise-job queue: it runs after every
	// pending nextTick but before timers.
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		l.QueueMicrotask(loc.Here(), step(l, log, "micro"))
		l.NextTick(loc.Here(), step(l, log, "tick"))
		l.SetTimeout(loc.Here(), step(l, log, "timer"), 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTrace(t, trace, []string{"tick", "micro", "timer"})
}

func TestQueueMicrotaskFIFOWithPromiseJobs(t *testing.T) {
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		l.SchedulePromiseJob(step(l, log, "job1"), nil, nil, nil)
		l.QueueMicrotask(loc.Here(), step(l, log, "micro"))
		l.SchedulePromiseJob(step(l, log, "job2"), nil, nil, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTrace(t, trace, []string{"job1", "micro", "job2"})
}

func TestClearIntervalFromAnotherTimer(t *testing.T) {
	l := New(Options{})
	runs := 0
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		id := l.SetInterval(loc.Here(), vm.NewFunc("i", func([]vm.Value) vm.Value {
			runs++
			return vm.Undefined
		}), 10*time.Millisecond)
		l.SetTimeout(loc.Here(), vm.NewFunc("killer", func([]vm.Value) vm.Value {
			l.ClearInterval(loc.Here(), id)
			return vm.Undefined
		}), 35*time.Millisecond)
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if runs != 3 { // fires at 10, 20, 30; cleared at 35
		t.Fatalf("interval ran %d times, want 3", runs)
	}
}

func TestClearTimerInSamePhaseBatch(t *testing.T) {
	// Two timers due together: the first clears the second before it
	// runs, even though both were collected for this timer phase.
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		var second uint64
		l.SetTimeout(loc.Here(), vm.NewFunc("first", func([]vm.Value) vm.Value {
			log("first")
			l.ClearTimeout(loc.Here(), second)
			return vm.Undefined
		}), 10*time.Millisecond)
		second = l.SetTimeout(loc.Here(), step(l, log, "second"), 10*time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTrace(t, trace, []string{"first"})
}

func TestClearImmediateDuringImmediatePhase(t *testing.T) {
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		var second uint64
		l.SetImmediate(loc.Here(), vm.NewFunc("first", func([]vm.Value) vm.Value {
			log("first")
			l.ClearImmediate(loc.Here(), second)
			return vm.Undefined
		}))
		second = l.SetImmediate(loc.Here(), step(l, log, "second"))
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTrace(t, trace, []string{"first"})
}

func TestIOScheduledInPastRunsImmediately(t *testing.T) {
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		l.Work(10 * time.Millisecond)
		// readyAt before now is clamped to now.
		l.ScheduleIOAt(0, step(l, log, "io"), nil, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTrace(t, trace, []string{"io"})
}

func TestCloseScheduledDuringClosePhaseRunsNextIteration(t *testing.T) {
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		l.ScheduleClose(vm.NewFunc("outer", func([]vm.Value) vm.Value {
			log("outer")
			l.ScheduleClose(step(l, log, "inner"), nil, nil)
			return vm.Undefined
		}), nil, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTrace(t, trace, []string{"outer", "inner"})
}

func TestWorkInsideCallbackDelaysLaterTimers(t *testing.T) {
	// A slow callback (virtual Work) pushes the loop past several timer
	// deadlines; they then all fire in the same phase, deadline order.
	trace, err := runTrace(t, Options{}, func(l *Loop, log func(string)) {
		l.SetTimeout(loc.Here(), vm.NewFunc("slow", func([]vm.Value) vm.Value {
			log("slow")
			l.Work(100 * time.Millisecond)
			return vm.Undefined
		}), time.Millisecond)
		l.SetTimeout(loc.Here(), step(l, log, "t10"), 10*time.Millisecond)
		l.SetTimeout(loc.Here(), step(l, log, "t20"), 20*time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTrace(t, trace, []string{"slow", "t10", "t20"})
}

func TestInvokeReturnsValueAndThrown(t *testing.T) {
	l := New(Options{})
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		ret, thrown := l.Invoke(vm.NewFunc("v", func(args []vm.Value) vm.Value {
			return args[0]
		}), []vm.Value{"echo"}, nil)
		if thrown != nil || ret != "echo" {
			t.Errorf("ret=%v thrown=%v", ret, thrown)
		}
		ret, thrown = l.Invoke(vm.NewFunc("t", func([]vm.Value) vm.Value {
			vm.Throw("nested")
			return vm.Undefined
		}), nil, nil)
		if thrown == nil || vm.ToString(thrown.Value) != "nested" {
			t.Errorf("thrown = %v", thrown)
		}
		_ = ret
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if len(l.Uncaught()) != 0 {
		t.Fatalf("nested throw leaked to uncaught: %v", l.Uncaught())
	}
}

func TestManyTimersSameDeadlineFIFO(t *testing.T) {
	var got []string
	l := New(Options{})
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		for i := 0; i < 20; i++ {
			label := fmt.Sprintf("t%02d", i)
			l.SetTimeout(loc.Here(), vm.NewFunc(label, func([]vm.Value) vm.Value {
				got = append(got, label)
				return vm.Undefined
			}), 5*time.Millisecond)
		}
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if got[i] != fmt.Sprintf("t%02d", i) {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
}
