package detect

import (
	"testing"
	"time"

	"asyncg/internal/asyncgraph"
	"asyncg/internal/eventloop"
	"asyncg/internal/loc"
	"asyncg/internal/netio"
	"asyncg/internal/promise"
	"asyncg/internal/state"
	"asyncg/internal/vm"
)

func TestRaceTwoTimersWriteSameCell(t *testing.T) {
	// Two independently-registered timer callbacks both write the same
	// shared variable: their order depends on the timer deadlines —
	// the classic event-ordering race.
	a := analyze(t, func(l *eventloop.Loop) {
		counter := state.NewCell(l, "counter", loc.Here(), 0)
		writer := func(name string) *vm.Function {
			return vm.NewFunc(name, func([]vm.Value) vm.Value {
				counter.Set(loc.Here(), counter.Get(loc.Here()).(int)+1)
				return vm.Undefined
			})
		}
		l.SetTimeout(loc.Here(), writer("w1"), time.Millisecond)
		l.SetTimeout(loc.Here(), writer("w2"), 2*time.Millisecond)
	})
	wantWarning(t, a, CatRace)
}

func TestNoRaceWhenCausallyChained(t *testing.T) {
	// The second write happens in a callback registered by the first:
	// the AG orders them.
	a := analyze(t, func(l *eventloop.Loop) {
		counter := state.NewCell(l, "counter", loc.Here(), 0)
		l.SetTimeout(loc.Here(), vm.NewFunc("first", func([]vm.Value) vm.Value {
			counter.Set(loc.Here(), 1)
			l.SetTimeout(loc.Here(), vm.NewFunc("second", func([]vm.Value) vm.Value {
				counter.Set(loc.Here(), 2)
				return vm.Undefined
			}), time.Millisecond)
			return vm.Undefined
		}), time.Millisecond)
	})
	wantNoWarning(t, a, CatRace)
}

func TestNoRaceForReadOnlyAccesses(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		cfgCell := state.NewCell(l, "config", loc.Here(), "ro")
		reader := func(name string) *vm.Function {
			return vm.NewFunc(name, func([]vm.Value) vm.Value {
				_ = cfgCell.Get(loc.Here())
				return vm.Undefined
			})
		}
		l.SetTimeout(loc.Here(), reader("r1"), time.Millisecond)
		l.SetTimeout(loc.Here(), reader("r2"), 2*time.Millisecond)
	})
	wantNoWarning(t, a, CatRace)
}

func TestNoRaceWithinMainProgram(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		c := state.NewCell(l, "x", loc.Here(), 0)
		c.Set(loc.Here(), 1)
		c.Set(loc.Here(), 2)
	})
	wantNoWarning(t, a, CatRace)
}

func TestMainAccessOrderedBeforeCallbacks(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		c := state.NewCell(l, "x", loc.Here(), 0)
		c.Set(loc.Here(), 1) // main happens-before the timer
		l.SetTimeout(loc.Here(), vm.NewFunc("w", func([]vm.Value) vm.Value {
			c.Set(loc.Here(), 2)
			return vm.Undefined
		}), time.Millisecond)
	})
	wantNoWarning(t, a, CatRace)
}

func TestNoRaceForDeterministicMicrotasks(t *testing.T) {
	// Two nextTick callbacks run in FIFO registration order — a
	// deterministic schedule, so no race is flagged even though the AG
	// has no causal path between them.
	a := analyze(t, func(l *eventloop.Loop) {
		c := state.NewCell(l, "x", loc.Here(), 0)
		w := func(name string, v int) *vm.Function {
			return vm.NewFunc(name, func([]vm.Value) vm.Value {
				c.Set(loc.Here(), v)
				return vm.Undefined
			})
		}
		l.NextTick(loc.Here(), w("t1", 1))
		l.NextTick(loc.Here(), w("t2", 2))
	})
	wantNoWarning(t, a, CatRace)
}

func TestRaceBetweenIOCallbacks(t *testing.T) {
	// Two network deliveries writing the same state: arrival order is
	// timing-dependent.
	a := analyze(t, func(l *eventloop.Loop) {
		n := netio.New(l)
		last := state.NewCell(l, "lastChunk", loc.Here(), vm.Undefined)
		x, y := n.Pipe(loc.Here())
		p, q := n.Pipe(loc.Here())
		record := func(name string) *vm.Function {
			return vm.NewFunc(name, func(args []vm.Value) vm.Value {
				last.Set(loc.Here(), args[0])
				return vm.Undefined
			})
		}
		y.On(loc.Here(), netio.EventData, record("connA"))
		q.On(loc.Here(), netio.EventData, record("connB"))
		x.WriteString(loc.Here(), "from-A")
		p.WriteString(loc.Here(), "from-B")
	})
	wantWarning(t, a, CatRace)
}

func TestRaceThroughPromiseResolutionIsOrdered(t *testing.T) {
	// Write in a timer callback, read in a reaction of a promise that
	// the same timer callback resolves: causally ordered via the ★
	// trigger edge.
	a := analyze(t, func(l *eventloop.Loop) {
		c := state.NewCell(l, "x", loc.Here(), 0)
		p := promise.New(l, loc.Here(), nil)
		p.Then(loc.Here(), vm.NewFunc("reader", func(args []vm.Value) vm.Value {
			_ = c.Get(loc.Here())
			return vm.Undefined
		}), nil).Catch(loc.Here(), noop("c"))
		l.SetTimeout(loc.Here(), vm.NewFunc("writerAndResolver", func([]vm.Value) vm.Value {
			c.Set(loc.Here(), 1)
			p.Resolve(loc.Here(), vm.Undefined)
			return vm.Undefined
		}), time.Millisecond)
	})
	wantNoWarning(t, a, CatRace)
}

func TestRaceWarningDeduplicated(t *testing.T) {
	a := analyze(t, func(l *eventloop.Loop) {
		c := state.NewCell(l, "x", loc.Here(), 0)
		w := func(name string) *vm.Function {
			return vm.NewFunc(name, func([]vm.Value) vm.Value {
				// Multiple accesses per callback must still yield one
				// warning per conflicting callback pair.
				c.Set(loc.Here(), 1)
				c.Set(loc.Here(), 2)
				return vm.Undefined
			})
		}
		l.SetTimeout(loc.Here(), w("w1"), time.Millisecond)
		l.SetTimeout(loc.Here(), w("w2"), 2*time.Millisecond)
	})
	if got := len(a.WarningsOf(CatRace)); got != 1 {
		t.Fatalf("race warnings = %d, want 1 (deduplicated)", got)
	}
}

func TestRacesDisabledByConfig(t *testing.T) {
	l := eventloop.New(eventloop.Options{TickLimit: 200})
	b := asyncgraph.NewBuilder(asyncgraph.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Races = false
	a := NewAnalyzer(b, cfg)
	l.Probes().Attach(b)
	l.Probes().Attach(a)
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		c := state.NewCell(l, "x", loc.Here(), 0)
		w := func(name string) *vm.Function {
			return vm.NewFunc(name, func([]vm.Value) vm.Value {
				c.Set(loc.Here(), 1)
				return vm.Undefined
			})
		}
		l.SetTimeout(loc.Here(), w("w1"), time.Millisecond)
		l.SetTimeout(loc.Here(), w("w2"), 2*time.Millisecond)
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	a.Finish()
	if len(a.WarningsOf(CatRace)) != 0 {
		t.Fatal("race detector ran despite being disabled")
	}
}
