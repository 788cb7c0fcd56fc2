package detect

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"asyncg/internal/asyncgraph"
	"asyncg/internal/eventloop"
	"asyncg/internal/events"
	"asyncg/internal/loc"
	"asyncg/internal/promise"
	"asyncg/internal/state"
	"asyncg/internal/vm"
)

// analyze runs program with builder + analyzer attached and returns the
// finished analyzer. Loop errors other than the tick limit fail the test.
func analyze(t *testing.T, program func(l *eventloop.Loop)) *Analyzer {
	t.Helper()
	l := eventloop.New(eventloop.Options{TickLimit: 200})
	b := asyncgraph.NewBuilder(asyncgraph.DefaultConfig())
	a := NewAnalyzer(b, DefaultConfig())
	l.Probes().Attach(b)
	l.Probes().Attach(a)
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		program(l)
		return vm.Undefined
	})
	if err := l.Run(main); err != nil && err != eventloop.ErrTickLimit {
		t.Fatal(err)
	}
	if anomalies := b.Anomalies(); len(anomalies) != 0 {
		t.Fatalf("builder anomalies: %v", anomalies)
	}
	a.Finish()
	return a
}

func wantWarning(t *testing.T, a *Analyzer, category Category) asyncgraph.Warning {
	t.Helper()
	ws := a.WarningsOf(category)
	if len(ws) == 0 {
		t.Fatalf("no %q warning; got %v", category, a.Warnings())
	}
	return ws[0]
}

func wantNoWarning(t *testing.T, a *Analyzer, category Category) {
	t.Helper()
	if ws := a.WarningsOf(category); len(ws) != 0 {
		t.Fatalf("unexpected %q warnings: %v", category, ws)
	}
}

func noop(name string) *vm.Function {
	return vm.NewFunc(name, func([]vm.Value) vm.Value { return vm.Undefined })
}

// --- Scheduling bugs (§VI-A.1) ---

func TestRecursiveNextTickWarning(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		var compute *vm.Function
		compute = vm.NewFunc("compute", func([]vm.Value) vm.Value {
			l.NextTick(loc.Here(), compute)
			return vm.Undefined
		})
		l.NextTick(loc.Here(), compute)
	})
	w := wantWarning(t, a, CatRecursiveMicrotask)
	if w.Node == asyncgraph.NoNode {
		t.Error("warning not anchored to a CR node")
	}
}

func TestNonRecursiveNextTickHasNoWarning(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		l.NextTick(loc.Here(), vm.NewFunc("once", func([]vm.Value) vm.Value {
			l.NextTick(loc.Here(), noop("other"))
			return vm.Undefined
		}))
	})
	wantNoWarning(t, a, CatRecursiveMicrotask)
}

func TestRecursiveSetImmediateIsFine(t *testing.T) {
	// The Fig. 1 fix must not warn.
	a := analyze(t, func(l *eventloop.Loop) {
		count := 0
		var compute *vm.Function
		compute = vm.NewFunc("compute", func([]vm.Value) vm.Value {
			count++
			if count < 10 {
				l.SetImmediate(loc.Here(), compute)
			}
			return vm.Undefined
		})
		l.SetImmediate(loc.Here(), compute)
	})
	wantNoWarning(t, a, CatRecursiveMicrotask)
	wantNoWarning(t, a, CatMicroStarvation)
}

func TestMicroStarvationWarning(t *testing.T) {
	// The tick limit lets the cycle run past the threshold.
	l := eventloop.New(eventloop.Options{TickLimit: 2 * MicroStarvationThreshold})
	b := asyncgraph.NewBuilder(asyncgraph.DefaultConfig())
	a := NewAnalyzer(b, DefaultConfig())
	l.Probes().Attach(b)
	l.Probes().Attach(a)
	// A two-callback cycle: per-callback self-reschedule detection does
	// not fire, but the starvation counter does.
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		var ping, pong *vm.Function
		ping = vm.NewFunc("ping", func([]vm.Value) vm.Value {
			l.NextTick(loc.Here(), pong)
			return vm.Undefined
		})
		pong = vm.NewFunc("pong", func([]vm.Value) vm.Value {
			l.NextTick(loc.Here(), ping)
			return vm.Undefined
		})
		l.NextTick(loc.Here(), ping)
		return vm.Undefined
	})
	if err := l.Run(main); err != eventloop.ErrTickLimit {
		t.Fatal(err)
	}
	a.Finish()
	if len(a.WarningsOf(CatMicroStarvation)) == 0 {
		t.Fatalf("no starvation warning: %v", a.Warnings())
	}
}

func TestMixingSimilarAPIsWarning(t *testing.T) {
	// The §III motivating snippet: then on a resolved promise, then
	// setTimeout(0), then nextTick — registration order inverts
	// execution order twice.
	a := analyze(t, func(l *eventloop.Loop) {
		promise.Resolved(l, loc.Here(), vm.Undefined).Then(loc.Here(), noop("L2"), nil)
		l.SetTimeout(loc.Here(), noop("L5"), 0)
		l.NextTick(loc.Here(), noop("L8"))
	})
	wantWarning(t, a, CatMixedAPIs)
}

func TestMixingInRegistrationOrderIsFine(t *testing.T) {
	// nextTick before setImmediate before setTimeout: registration
	// order equals execution order; no warning.
	a := analyze(t, func(l *eventloop.Loop) {
		l.NextTick(loc.Here(), noop("a"))
		l.SetImmediate(loc.Here(), noop("b"))
		l.SetTimeout(loc.Here(), noop("c"), 0)
	})
	wantNoWarning(t, a, CatMixedAPIs)
}

func TestMixingAcrossTicksIsFine(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		l.SetTimeout(loc.Here(), vm.NewFunc("t1", func([]vm.Value) vm.Value {
			l.NextTick(loc.Here(), noop("tick"))
			return vm.Undefined
		}), time.Millisecond)
		l.SetTimeout(loc.Here(), vm.NewFunc("t2", func([]vm.Value) vm.Value {
			l.SetImmediate(loc.Here(), noop("imm"))
			return vm.Undefined
		}), 2*time.Millisecond)
	})
	wantNoWarning(t, a, CatMixedAPIs)
}

// TestSchedulingMessagesAcrossReset runs recursive micro-task and
// mixed-API programs twice each on one analyzer, Reset between runs,
// with differently named callbacks and registration sites. The
// recursive micro-task message is cached by callback name and API, and
// the mixed-API message renders the earlier registration's location
// only when it warns; every message and node label must still read as
// the fmt.Sprintf form of its own run.
func TestSchedulingMessagesAcrossReset(t *testing.T) {
	l := eventloop.New(eventloop.Options{TickLimit: 50})
	b := asyncgraph.NewBuilder(asyncgraph.DefaultConfig())
	a := NewAnalyzer(b, DefaultConfig())
	l.Probes().Attach(b)
	l.Probes().Attach(a)
	// run executes one program on the reused analyzer and checks that
	// its warnings of category are exactly the message want.
	run := func(category Category, want string, program func()) {
		t.Helper()
		l.Reset()
		b.Reset()
		a.Reset()
		main := vm.NewFunc("main", func([]vm.Value) vm.Value {
			program()
			return vm.Undefined
		})
		if err := l.Run(main); err != nil && err != eventloop.ErrTickLimit {
			t.Fatal(err)
		}
		a.Finish()
		ws := a.WarningsOf(category)
		if len(ws) == 0 {
			t.Fatalf("no %q warning; got %v", category, a.Warnings())
		}
		for _, w := range ws {
			if w.Message != want {
				t.Errorf("message %q, want %q", w.Message, want)
			}
			n := a.g.Node(w.Node)
			if n == nil {
				t.Fatalf("%q warning not anchored to a node", category)
			}
			if label := string(category) + ": " + want; !slices.Contains(n.Warnings, label) {
				t.Errorf("node labels %q, want one %q", n.Warnings, label)
			}
		}
	}
	recursive := func(name string, reschedule func(self *vm.Function)) func() {
		return func() {
			var fn *vm.Function
			fn = vm.NewFunc(name, func([]vm.Value) vm.Value {
				reschedule(fn)
				return vm.Undefined
			})
			l.NextTick(loc.Here(), fn)
		}
	}
	viaNextTick := func(self *vm.Function) { l.NextTick(loc.Here(), self) }
	viaThen := func(self *vm.Function) {
		promise.Resolved(l, loc.Here(), vm.Undefined).Then(loc.Here(), self, nil)
	}
	recursiveMsg := func(name, api string) string {
		return fmt.Sprintf("callback %q recursively reschedules itself with %s: micro-tasks have priority over all other phases and will starve the event loop", name, api)
	}
	mixedMsg := func(later, earlier string, at loc.Loc) string {
		return fmt.Sprintf("%s (registered after %s at %s) will execute before it: mixing similar APIs with different scheduling priorities", later, earlier, at)
	}

	run(CatRecursiveMicrotask, recursiveMsg("compute", eventloop.APINextTick), recursive("compute", viaNextTick))
	immAt := loc.Here()
	run(CatMixedAPIs, mixedMsg(eventloop.APINextTick, eventloop.APISetImmediate, immAt), func() {
		l.SetImmediate(immAt, noop("imm"))
		l.NextTick(loc.Here(), noop("tick"))
	})
	run(CatRecursiveMicrotask, recursiveMsg("spin", eventloop.APINextTick), recursive("spin", viaNextTick))
	run(CatRecursiveMicrotask, recursiveMsg("spin", promise.APIThen), recursive("spin", viaThen))
	timeoutAt := loc.Here()
	run(CatMixedAPIs, mixedMsg(eventloop.APINextTick, eventloop.APISetTimeout, timeoutAt), func() {
		l.SetTimeout(timeoutAt, noop("timeout"), 0)
		l.NextTick(loc.Here(), noop("tick"))
	})
}

func TestUnexpectedTimeoutOrderWarning(t *testing.T) {
	// §VI-A.1(c): setTimeout(foo, 101); heavy work; setTimeout(bar,
	// 100). foo (larger timeout) fires first.
	a := analyze(t, func(l *eventloop.Loop) {
		l.SetTimeout(loc.Here(), noop("foo"), 101*time.Millisecond)
		l.Work(5 * time.Millisecond)
		l.SetTimeout(loc.Here(), noop("bar"), 100*time.Millisecond)
	})
	wantWarning(t, a, CatTimeoutOrder)
}

func TestTimeoutOrderRespectedIsFine(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		l.SetTimeout(loc.Here(), noop("first"), 50*time.Millisecond)
		l.SetTimeout(loc.Here(), noop("second"), 100*time.Millisecond)
	})
	wantNoWarning(t, a, CatTimeoutOrder)
}

// --- Emitter bugs (§VI-A.2) ---

func TestDeadListenerWarning(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		e := events.New(l, "e", loc.Here())
		e.On(loc.Here(), "never", noop("listener"))
		e.Emit(loc.Here(), "other")
	})
	w := wantWarning(t, a, CatDeadListener)
	if w.Node == asyncgraph.NoNode {
		t.Error("dead listener warning not anchored")
	}
}

func TestExecutedListenerIsNotDead(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		e := events.New(l, "e", loc.Here())
		e.On(loc.Here(), "x", noop("listener"))
		e.Emit(loc.Here(), "x")
	})
	wantNoWarning(t, a, CatDeadListener)
}

func TestRemovedListenerIsNotDead(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		e := events.New(l, "e", loc.Here())
		h := noop("listener")
		e.On(loc.Here(), "x", h)
		e.RemoveListener(loc.Here(), "x", h)
	})
	wantNoWarning(t, a, CatDeadListener)
}

func TestDeadEmitWarning(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		e := events.New(l, "e", loc.Here())
		e.Emit(loc.Here(), "ghost")
	})
	wantWarning(t, a, CatDeadEmit)
}

func TestEmitBeforeListenerRegistrationIsDead(t *testing.T) {
	// The Fig. 4 bug: emit in the main tick, listener registered in the
	// promise reaction of the following tick.
	a := analyze(t, func(l *eventloop.Loop) {
		e := events.New(l, "ee", loc.Here())
		p := promise.New(l, loc.Here(), vm.NewFunc("exec", func(args []vm.Value) vm.Value {
			args[0].(*promise.Promise).Resolve(loc.Here(), 0)
			return vm.Undefined
		}))
		p.Then(loc.Here(), vm.NewFunc("reaction", func(args []vm.Value) vm.Value {
			e.On(loc.Here(), "foo", noop("listener"))
			return vm.Undefined
		}), nil)
		e.Emit(loc.Here(), "foo") // dead: the listener is not yet there
	})
	wantWarning(t, a, CatDeadEmit)
	wantWarning(t, a, CatDeadListener)
}

func TestFixedEmitViaSetImmediateIsClean(t *testing.T) {
	// The Fig. 4 fix: defer the emit past the promise micro-task.
	a := analyze(t, func(l *eventloop.Loop) {
		e := events.New(l, "ee", loc.Here())
		p := promise.New(l, loc.Here(), vm.NewFunc("exec", func(args []vm.Value) vm.Value {
			args[0].(*promise.Promise).Resolve(loc.Here(), 0)
			return vm.Undefined
		}))
		p.Then(loc.Here(), vm.NewFunc("reaction", func(args []vm.Value) vm.Value {
			e.On(loc.Here(), "foo", noop("listener"))
			return vm.Undefined
		}), nil).Catch(loc.Here(), noop("handler"))
		l.SetImmediate(loc.Here(), vm.NewFunc("deferred", func([]vm.Value) vm.Value {
			e.Emit(loc.Here(), "foo")
			return vm.Undefined
		}))
	})
	wantNoWarning(t, a, CatDeadEmit)
	wantNoWarning(t, a, CatDeadListener)
	wantNoWarning(t, a, CatMissingRejectHandler)
}

func TestInvalidListenerRemovalWarning(t *testing.T) {
	// SO-10444077: removing a fresh closure that merely looks like the
	// registered one.
	a := analyze(t, func(l *eventloop.Loop) {
		e := events.New(l, "e", loc.Here())
		e.On(loc.Here(), "x", noop("listener"))
		e.RemoveListener(loc.Here(), "x", noop("listener")) // different identity
		e.Emit(loc.Here(), "x")
	})
	wantWarning(t, a, CatInvalidRemoval)
}

func TestValidRemovalHasNoWarning(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		e := events.New(l, "e", loc.Here())
		h := noop("listener")
		e.On(loc.Here(), "x", h)
		e.RemoveListener(loc.Here(), "x", h)
	})
	wantNoWarning(t, a, CatInvalidRemoval)
}

func TestDuplicateListenerWarning(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		e := events.New(l, "e", loc.Here())
		h := noop("listener")
		e.On(loc.Here(), "x", h)
		e.On(loc.Here(), "x", h)
		e.Emit(loc.Here(), "x")
	})
	wantWarning(t, a, CatDuplicateListener)
}

func TestSameListenerDifferentEventsIsFine(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		e := events.New(l, "e", loc.Here())
		h := noop("listener")
		e.On(loc.Here(), "x", h)
		e.On(loc.Here(), "y", h)
		e.Emit(loc.Here(), "x")
		e.Emit(loc.Here(), "y")
	})
	wantNoWarning(t, a, CatDuplicateListener)
}

func TestAddListenerWithinListenerWarning(t *testing.T) {
	// SO-17894000: the 'close' listener is registered inside the 'data'
	// listener; if the connection closes before data arrives it is lost.
	a := analyze(t, func(l *eventloop.Loop) {
		conn := events.New(l, "conn", loc.Here())
		conn.On(loc.Here(), "data", vm.NewFunc("onData", func([]vm.Value) vm.Value {
			conn.On(loc.Here(), "close", noop("onClose"))
			return vm.Undefined
		}))
		conn.Emit(loc.Here(), "data", "chunk")
		conn.Emit(loc.Here(), "close")
	})
	wantWarning(t, a, CatListenerInListener)
}

func TestAddListenerOnOtherEmitterWithinListenerIsFine(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		e1 := events.New(l, "e1", loc.Here())
		e2 := events.New(l, "e2", loc.Here())
		e1.On(loc.Here(), "x", vm.NewFunc("h", func([]vm.Value) vm.Value {
			e2.On(loc.Here(), "y", noop("other"))
			return vm.Undefined
		}))
		e1.Emit(loc.Here(), "x")
		e2.Emit(loc.Here(), "y")
	})
	wantNoWarning(t, a, CatListenerInListener)
}

// --- Promise bugs (§VI-A.3) ---

func TestDeadPromiseWarning(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		promise.New(l, loc.Here(), nil) // never settled
	})
	wantWarning(t, a, CatDeadPromise)
}

func TestSettledPromiseIsNotDead(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		p := promise.New(l, loc.Here(), nil)
		p.Resolve(loc.Here(), 1)
		p.Then(loc.Here(), noop("h"), nil).Catch(loc.Here(), noop("c"))
	})
	wantNoWarning(t, a, CatDeadPromise)
}

func TestDeadPromiseWarnsOnRootOnly(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		p := promise.New(l, loc.Here(), nil) // dead root
		p.Then(loc.Here(), noop("h"), nil).Catch(loc.Here(), noop("c"))
	})
	if got := len(a.WarningsOf(CatDeadPromise)); got != 1 {
		t.Fatalf("dead-promise warnings = %d, want 1 (root only): %v", got, a.WarningsOf(CatDeadPromise))
	}
}

func TestMissingReactionWarning(t *testing.T) {
	// GH-vuex-2: a promise is created and settled but nobody reacts.
	a := analyze(t, func(l *eventloop.Loop) {
		p := promise.New(l, loc.Here(), nil)
		p.Resolve(loc.Here(), "ignored")
	})
	wantWarning(t, a, CatMissingReaction)
}

func TestAwaitCountsAsReaction(t *testing.T) {
	// SO-43422932 (fixed version): awaiting the async function's result.
	a := analyze(t, func(l *eventloop.Loop) {
		p := promise.Resolved(l, loc.Here(), 42)
		promise.Go(l, loc.Here(), "af", func(aw *promise.Awaiter) vm.Value {
			return aw.Await(loc.Here(), p)
		}).Then(loc.Here(), noop("use"), noop("err"))
	})
	wantNoWarning(t, a, CatMissingReaction)
}

func TestUnconsumedAsyncResultWarnsMissingReaction(t *testing.T) {
	// SO-43422932: the async function is called without await; the
	// promise it returns is never observed.
	a := analyze(t, func(l *eventloop.Loop) {
		data := promise.Resolved(l, loc.Here(), "json")
		promise.Go(l, loc.Here(), "fetchJSON", func(aw *promise.Awaiter) vm.Value {
			return aw.Await(loc.Here(), data)
		}) // result used "by mistake" as if it were the JSON value
	})
	wantWarning(t, a, CatMissingReaction)
}

func TestCombinatorInputCountsAsReaction(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		p1 := promise.Resolved(l, loc.Here(), 1)
		p2 := promise.Resolved(l, loc.Here(), 2)
		promise.All(l, loc.Here(), p1, p2).Then(loc.Here(), noop("h"), nil).Catch(loc.Here(), noop("c"))
	})
	wantNoWarning(t, a, CatMissingReaction)
}

func TestMissingRejectHandlerWarning(t *testing.T) {
	// Fig. 4 line 12: a chain ending on a then without catch.
	a := analyze(t, func(l *eventloop.Loop) {
		promise.Resolved(l, loc.Here(), 0).Then(loc.Here(), noop("h"), nil)
	})
	wantWarning(t, a, CatMissingRejectHandler)
}

func TestCatchTerminatedChainIsClean(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		promise.Resolved(l, loc.Here(), 0).
			Then(loc.Here(), noop("h"), nil).
			Catch(loc.Here(), noop("c"))
	})
	wantNoWarning(t, a, CatMissingRejectHandler)
}

func TestThenWithRejectionHandlerTerminatesChain(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		promise.Resolved(l, loc.Here(), 0).Then(loc.Here(), noop("h"), noop("r"))
	})
	wantNoWarning(t, a, CatMissingRejectHandler)
}

func TestStructuralDetectionWithoutException(t *testing.T) {
	// "AsyncG ... is able to raise such warnings without the need to
	// have an actual exception thrown": the chain never rejects, yet
	// the missing handler is reported.
	a := analyze(t, func(l *eventloop.Loop) {
		promise.Resolved(l, loc.Here(), "fine").Then(loc.Here(),
			vm.NewFunc("ok", func(args []vm.Value) vm.Value { return args[0] }), nil)
	})
	wantWarning(t, a, CatMissingRejectHandler)
}

func TestMissingReturnWarning(t *testing.T) {
	// SO-50996870 / GH-vuex-2 pattern: a then handler forgets to return
	// while the chain continues.
	a := analyze(t, func(l *eventloop.Loop) {
		promise.Resolved(l, loc.Here(), 1).
			Then(loc.Here(), vm.NewFunc("forgets", func(args []vm.Value) vm.Value {
				return vm.Undefined // should have returned a value
			}), nil).
			Then(loc.Here(), noop("consumer"), nil).
			Catch(loc.Here(), noop("c"))
	})
	wantWarning(t, a, CatMissingReturn)
}

func TestReturningValueHasNoMissingReturn(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		promise.Resolved(l, loc.Here(), 1).
			Then(loc.Here(), vm.NewFunc("returns", func(args []vm.Value) vm.Value {
				return args[0]
			}), nil).
			Then(loc.Here(), noop("consumer"), nil).
			Catch(loc.Here(), noop("c"))
	})
	wantNoWarning(t, a, CatMissingReturn)
}

func TestChainEndReturningUndefinedIsFine(t *testing.T) {
	// A final then with no consumers may return nothing.
	a := analyze(t, func(l *eventloop.Loop) {
		promise.Resolved(l, loc.Here(), 1).
			Then(loc.Here(), noop("end"), nil).
			Catch(loc.Here(), noop("c"))
	})
	wantNoWarning(t, a, CatMissingReturn)
}

func TestDoubleResolveWarning(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		p := promise.New(l, loc.Here(), nil)
		p.Resolve(loc.Here(), 1)
		p.Resolve(loc.Here(), 2)
		p.Then(loc.Here(), noop("h"), nil).Catch(loc.Here(), noop("c"))
	})
	wantWarning(t, a, CatDoubleSettle)
}

func TestDoubleRejectWarning(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		p := promise.New(l, loc.Here(), nil)
		p.Reject(loc.Here(), "e1")
		p.Reject(loc.Here(), "e2")
		p.Catch(loc.Here(), noop("c"))
	})
	wantWarning(t, a, CatDoubleSettle)
}

func TestBrokenChainWarning(t *testing.T) {
	// SO-50996870: a promise created inside a then callback, neither
	// returned nor linked.
	a := analyze(t, func(l *eventloop.Loop) {
		promise.Resolved(l, loc.Here(), 1).
			Then(loc.Here(), vm.NewFunc("dbQuery", func(args []vm.Value) vm.Value {
				floating := promise.New(l, loc.Here(), nil)
				floating.Resolve(loc.Here(), "db-row")
				floating.Then(loc.Here(), noop("use"), nil).Catch(loc.Here(), noop("c"))
				return vm.Undefined // forgot: return floating
			}), nil).
			Then(loc.Here(), noop("consumer"), nil).
			Catch(loc.Here(), noop("c"))
	})
	wantWarning(t, a, CatBrokenChain)
}

func TestReturnedInnerPromiseIsNotBrokenChain(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		promise.Resolved(l, loc.Here(), 1).
			Then(loc.Here(), vm.NewFunc("dbQuery", func(args []vm.Value) vm.Value {
				inner := promise.New(l, loc.Here(), nil)
				inner.Resolve(loc.Here(), "db-row")
				return inner
			}), nil).
			Then(loc.Here(), noop("consumer"), nil).
			Catch(loc.Here(), noop("c"))
	})
	wantNoWarning(t, a, CatBrokenChain)
}

// --- Manual / graph-assisted queries (§VI-B) ---

func TestExplainCallbackDelay(t *testing.T) {
	var regAt loc.Loc
	a := analyze(t, func(l *eventloop.Loop) {
		regAt = loc.Here()
		l.SetTimeout(regAt, noop("cb"), 10*time.Millisecond)
	})
	exp := ExplainCallbackDelay(a.g, regAt)
	if exp == nil {
		t.Fatal("registration not found")
	}
	if !exp.Asynchronous() {
		t.Fatalf("TickDistance = %d, want > 0", exp.TickDistance)
	}
	w := exp.Warning()
	if w.Category != CatExpectSyncCallback {
		t.Fatalf("category = %s", w.Category)
	}
}

// --- Config gating ---

func TestDisabledDetectorsStaySilent(t *testing.T) {
	l := eventloop.New(eventloop.Options{TickLimit: 100})
	b := asyncgraph.NewBuilder(asyncgraph.DefaultConfig())
	a := NewAnalyzer(b, Config{}) // everything off
	l.Probes().Attach(b)
	l.Probes().Attach(a)
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		e := events.New(l, "e", loc.Here())
		e.Emit(loc.Here(), "ghost")
		promise.New(l, loc.Here(), nil)
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	a.Finish()
	if len(a.Warnings()) != 0 {
		t.Fatalf("warnings with all detectors off: %v", a.Warnings())
	}
}

func TestWarningsAnnotateGraphNodes(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		e := events.New(l, "e", loc.Here())
		e.On(loc.Here(), "never", noop("listener"))
	})
	w := wantWarning(t, a, CatDeadListener)
	n := a.g.Node(w.Node)
	if n == nil || len(n.Warnings) == 0 {
		t.Fatal("graph node not annotated with the warning")
	}
}

func TestFinishIsIdempotent(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		e := events.New(l, "e", loc.Here())
		e.On(loc.Here(), "never", noop("listener"))
	})
	n1 := len(a.Finish())
	n2 := len(a.Finish())
	if n1 != n2 {
		t.Fatalf("Finish not idempotent: %d then %d warnings", n1, n2)
	}
}

func TestThenOnPendingPromiseIsNotSimilarAPI(t *testing.T) {
	// A then() on a *pending* promise schedules nothing now, so it must
	// not participate in the same-tick mixing check.
	a := analyze(t, func(l *eventloop.Loop) {
		p := promise.New(l, loc.Here(), nil)
		p.Then(loc.Here(), noop("h"), noop("r"))
		l.NextTick(loc.Here(), noop("t"))
		l.SetTimeout(loc.Here(), vm.NewFunc("resolver", func([]vm.Value) vm.Value {
			p.Resolve(loc.Here(), 1)
			return vm.Undefined
		}), time.Millisecond)
	})
	wantNoWarning(t, a, CatMixedAPIs)
}

func TestTimeoutOrderGroupWarnsOnlyOnce(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		l.SetTimeout(loc.Here(), noop("a"), 30*time.Millisecond)
		l.Work(5 * time.Millisecond)
		l.SetTimeout(loc.Here(), noop("b"), 28*time.Millisecond)
		l.Work(5 * time.Millisecond)
		l.SetTimeout(loc.Here(), noop("c"), 22*time.Millisecond)
	})
	if got := len(a.WarningsOf(CatTimeoutOrder)); got != 1 {
		t.Fatalf("timeout-order warnings = %d, want 1", got)
	}
}

func TestDuplicateListenerThroughWrapperAPI(t *testing.T) {
	// Registrations through wrapper APIs (http.createServer style) are
	// classified by role, so duplicates are still caught.
	a := analyze(t, func(l *eventloop.Loop) {
		e := events.New(l, "server", loc.Here())
		h := noop("handler")
		e.OnWithAPI(loc.Here(), "http.createServer", "request", h)
		e.OnWithAPI(loc.Here(), "http.createServer", "request", h)
		e.Emit(loc.Here(), "request")
	})
	wantWarning(t, a, CatDuplicateListener)
}

func TestWarningStringFormat(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		e := events.New(l, "e", loc.Here())
		e.Emit(loc.Here(), "ghost")
	})
	s := wantWarning(t, a, CatDeadEmit).String()
	if !strings.Contains(s, "[dead-emit]") || !strings.Contains(s, "detect_test.go") {
		t.Fatalf("warning string = %q", s)
	}
}

func TestErrorListenersAreNotDead(t *testing.T) {
	// A defensive 'error' handler that never fires is healthy, not a
	// dead listener.
	a := analyze(t, func(l *eventloop.Loop) {
		e := events.New(l, "sock", loc.Here())
		e.On(loc.Here(), "error", noop("onError"))
		e.On(loc.Here(), "data", noop("onData"))
		e.Emit(loc.Here(), "data", "x")
	})
	wantNoWarning(t, a, CatDeadListener)
}

func TestWarningOrderIsDeterministic(t *testing.T) {
	// Post-hoc analyses iterate internal tables; the emitted warning
	// sequence must be identical run after run.
	program := func(l *eventloop.Loop) {
		for i := 0; i < 6; i++ {
			promise.New(l, loc.Here(), nil) // six dead promises
		}
		for i := 0; i < 3; i++ {
			e := events.New(l, "e", loc.Here())
			e.On(loc.Here(), "never", noop("listener"))
		}
		c1 := state.NewCell(l, "a", loc.Here(), 0)
		c2 := state.NewCell(l, "b", loc.Here(), 0)
		w := func(c *state.Cell) *vm.Function {
			return vm.NewFunc("w", func([]vm.Value) vm.Value {
				c.Set(loc.Here(), 1)
				return vm.Undefined
			})
		}
		l.SetTimeout(loc.Here(), w(c1), time.Millisecond)
		l.SetTimeout(loc.Here(), w(c1), 2*time.Millisecond)
		l.SetTimeout(loc.Here(), w(c2), 3*time.Millisecond)
		l.SetTimeout(loc.Here(), w(c2), 4*time.Millisecond)
	}
	render := func() string {
		a := analyze(t, program)
		out := ""
		for _, warn := range a.Warnings() {
			out += warn.String() + "\n"
		}
		return out
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("warning order differs between runs:\n--- run 1 ---\n%s--- run %d ---\n%s", first, i+2, got)
		}
	}
}
