package trace_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"asyncg/internal/eventloop"
	"asyncg/internal/events"
	"asyncg/internal/promise"
	"asyncg/internal/trace"
	"asyncg/internal/vm"
)

// runMetrics runs program as the main tick on a loop with a fresh
// registry attached.
func runMetrics(t *testing.T, program func(loop *eventloop.Loop)) *trace.Metrics {
	t.Helper()
	loop := eventloop.New(eventloop.Options{})
	m := trace.NewMetrics(loop)
	loop.Probes().Attach(m)
	main := vm.NewFuncAt("main", gl(1), func([]vm.Value) vm.Value {
		program(loop)
		return vm.Undefined
	})
	if err := loop.Run(main); err != nil {
		t.Fatal(err)
	}
	return m
}

// timersProgram queues three 100µs ticks, two timers of which the first
// delays the second, and an immediate.
func timersProgram(loop *eventloop.Loop) {
	for i := 0; i < 3; i++ {
		loop.NextTick(gl(2), vm.NewFuncAt("tick", gl(2), func([]vm.Value) vm.Value {
			loop.Work(100 * time.Microsecond)
			return vm.Undefined
		}))
	}
	loop.SetTimeout(gl(3), vm.NewFuncAt("t1", gl(3), func([]vm.Value) vm.Value {
		loop.Work(4 * time.Millisecond) // delays the second timer: loop lag
		return vm.Undefined
	}), time.Millisecond)
	loop.SetTimeout(gl(4), vm.NewFuncAt("t2", gl(4), func([]vm.Value) vm.Value {
		return vm.Undefined
	}), 2*time.Millisecond)
	loop.SetImmediate(gl(5), vm.NewFuncAt("imm", gl(5), func([]vm.Value) vm.Value {
		return vm.Undefined
	}))
}

func TestMetricsSnapshot(t *testing.T) {
	m := runMetrics(t, timersProgram)
	s := m.Snapshot()

	// 1 main + 3 ticks + 2 timers + 1 immediate top-level callbacks.
	if s.Ticks != 7 {
		t.Errorf("Ticks = %d, want 7", s.Ticks)
	}
	// Everything except the synthetic main tick is a dispatched, in-scope
	// execution.
	if s.Executions != 6 {
		t.Errorf("Executions = %d, want 6", s.Executions)
	}
	wantPhaseTicks := map[string]int64{"main": 1, "nextTick": 3, "timer": 2, "immediate": 1}
	for phase, want := range wantPhaseTicks {
		if got := s.PerPhase[phase].Ticks; got != want {
			t.Errorf("PerPhase[%q].Ticks = %d, want %d", phase, got, want)
		}
	}
	// Virtual-time accounting: the three ticks burned 300µs total.
	if got := s.PerPhase["nextTick"].Busy; got != 300*time.Microsecond {
		t.Errorf("nextTick Busy = %s, want 300µs", got)
	}
	wantAPI := map[string]int64{"process.nextTick": 3, "setTimeout": 2, "setImmediate": 1}
	for api, want := range wantAPI {
		if got := s.PerAPI[api].Count; got != want {
			t.Errorf("PerAPI[%q].Count = %d, want %d", api, got, want)
		}
	}
	if got := s.APIExecutions()["setTimeout"]; got != 2 {
		t.Errorf("APIExecutions()[setTimeout] = %d", got)
	}
	// setTimeout latencies: one 4ms, one ~0. Mean is half the sum; max 4ms.
	if got := s.PerAPI["setTimeout"].Latency.Max; got != 4*time.Millisecond {
		t.Errorf("setTimeout latency max = %s, want 4ms", got)
	}
	if s.PerAPI["setTimeout"].Latency.Count != 2 {
		t.Errorf("setTimeout latency count = %d", s.PerAPI["setTimeout"].Latency.Count)
	}
	// Depths are sampled at iteration boundaries: the first boundary sees
	// both timers pending and the immediate armed (the tick queue has
	// already drained — microtasks never survive to a boundary).
	if s.QueueHighWater.Timer != 2 {
		t.Errorf("timer high-water = %d, want 2", s.QueueHighWater.Timer)
	}
	if s.QueueHighWater.Immediate != 1 {
		t.Errorf("immediate high-water = %d, want 1", s.QueueHighWater.Immediate)
	}
	if s.QueueHighWater.NextTick != 0 {
		t.Errorf("nextTick high-water = %d, want 0", s.QueueHighWater.NextTick)
	}
	// The ticks end at 300µs; the first iteration (at 300µs plus one
	// iteration cost, before t1 is due) runs the immediate, and the
	// second advances the clock to t1's 1ms deadline, so t1 fires on
	// time. t2 (due at 2ms) waits behind t1's 4ms of work until 5ms, and
	// then for the next iteration's charge.
	if s.TimerLag.Count != 2 {
		t.Errorf("TimerLag.Count = %d, want 2", s.TimerLag.Count)
	}
	if got, want := s.TimerLag.Max, 3*time.Millisecond+eventloop.IterationCost; got != want {
		t.Errorf("TimerLag.Max = %s, want %s", got, want)
	}
	if s.Iterations == 0 {
		t.Error("Iterations = 0, loop extension never fired")
	}
}

func TestMetricsSnapshotIsACopy(t *testing.T) {
	m := runMetrics(t, timersProgram)
	s1 := m.Snapshot()
	s1.PerAPI["setTimeout"] = trace.APIStats{Count: 999}
	s1.PerPhase["main"] = trace.PhaseStats{Ticks: 999}
	s2 := m.Snapshot()
	if s2.PerAPI["setTimeout"].Count == 999 || s2.PerPhase["main"].Ticks == 999 {
		t.Fatal("Snapshot shares state with the registry")
	}
}

func TestMetricsWriteText(t *testing.T) {
	m := runMetrics(t, timersProgram)
	var buf bytes.Buffer
	if err := m.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"metrics —", "nextTick", "setTimeout", "queue high-water", "timer lag"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report lacks %q:\n%s", want, out)
		}
	}
}

// TestMetricsPopulation pins the population the per-API counts cover —
// the Fig. 6(b) measurement: dispatched server-side callbacks, but not
// the handler-less reaction slots the promise engine plumbs values
// through, nor callbacks of the simulated client zone.
func TestMetricsPopulation(t *testing.T) {
	noop := func(name string) *vm.Function {
		return vm.NewFunc(name, func([]vm.Value) vm.Value { return vm.Undefined })
	}
	cases := []struct {
		name    string
		program func(l *eventloop.Loop)
		want    map[string]int64
	}{{
		// 2 nextTick / 1 emitter / 1 promise.
		name: "by-category",
		program: func(l *eventloop.Loop) {
			l.NextTick(gl(2), noop("t"))
			l.NextTick(gl(2), noop("t2"))
			e := events.New(l, "e", gl(3))
			e.On(gl(3), "x", noop("h"))
			e.Emit(gl(3), "x")
			promise.Resolved(l, gl(4), 1).Then(gl(4), noop("r"), nil).Catch(gl(4), noop("c"))
		},
		want: map[string]int64{"process.nextTick": 2, "emitter.on": 1, "promise.then": 1},
	}, {
		// A fulfilled chain runs the then handler; the catch reaction
		// has no fulfillment handler, so its slot is a passthrough.
		name: "then-counts-catch-slot-does-not",
		program: func(l *eventloop.Loop) {
			promise.Resolved(l, gl(2), 1).Then(gl(2), noop("r"), nil).Catch(gl(2), noop("c"))
		},
		want: map[string]int64{"promise.then": 1},
	}, {
		name: "client-zone-listener-does-not-count",
		program: func(l *eventloop.Loop) {
			e := events.New(l, "client-side", gl(2))
			e.SetZone("client")
			e.On(gl(2), "x", noop("h"))
			e.Emit(gl(2), "x")
		},
		want: map[string]int64{},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := runMetrics(t, tc.program).Snapshot()
			if got := s.APIExecutions(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("per-API executions = %v, want %v", got, tc.want)
			}
			var total int64
			for _, n := range tc.want {
				total += n
			}
			if s.Executions != total {
				t.Errorf("Executions = %d, want %d", s.Executions, total)
			}
		})
	}
}

// TestMetricsReset checks that a reset registry reports exactly what a
// fresh one does.
func TestMetricsReset(t *testing.T) {
	m := runMetrics(t, timersProgram)
	m.Reset()
	fresh := trace.NewMetrics(eventloop.New(eventloop.Options{}))
	if got, want := m.Snapshot(), fresh.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reset snapshot = %+v, want %+v", got, want)
	}
}

func TestHistogram(t *testing.T) {
	var h trace.Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("zero histogram not zero")
	}
	h.Observe(0)
	h.Observe(time.Microsecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(100 * time.Microsecond)
	h.Observe(-time.Second) // clamped to 0
	if h.Count != 5 {
		t.Fatalf("count = %d", h.Count)
	}
	if h.Max != 100*time.Microsecond {
		t.Fatalf("max = %s", h.Max)
	}
	if got := h.Mean(); got != 104*time.Microsecond/5 {
		t.Fatalf("mean = %s", got)
	}
	// p100 never exceeds the observed max.
	if got := h.Quantile(1); got != 100*time.Microsecond {
		t.Fatalf("p100 = %s", got)
	}
	if got := h.Quantile(0.5); got > 4*time.Microsecond {
		t.Fatalf("p50 = %s", got)
	}
	// A huge sample lands in the final bucket without overflow.
	h.Observe(48 * time.Hour)
	if h.Max != 48*time.Hour {
		t.Fatalf("max = %s", h.Max)
	}
}
