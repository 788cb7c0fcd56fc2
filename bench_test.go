package asyncg_test

// Benchmarks of the paper's evaluation paths:
//
//	Fig. 6(b)  BenchmarkFig6bAPIUsage (per-request metrics)
//	Table I    BenchmarkTableI (all bug cases detect under budget)
//	Figs 3/5   BenchmarkGraphConstruction (AG build cost per event)
//
// plus AcmeAir ablations (the builder alone, the builder with detectors,
// and the same with debug stacks) and micro-benchmarks of the
// substrates. Fig. 6(a) is recorded by `asyncg fig6 -fig 6a -out
// BENCH_fig6a.json`, not here. Run with:
//
//	go test -bench=. -benchmem

import (
	"strings"
	"testing"
	"time"

	"asyncg"
	"asyncg/internal/acmeair"
	"asyncg/internal/asyncgraph"
	"asyncg/internal/casestudy"
	"asyncg/internal/detect"
	"asyncg/internal/eventloop"
	"asyncg/internal/events"
	"asyncg/internal/experiments"
	"asyncg/internal/loc"
	"asyncg/internal/mongosim"
	"asyncg/internal/promise"
	"asyncg/internal/vm"
)

// benchLoad is the per-iteration AcmeAir workload for Fig. 6 benches.
func benchLoad() experiments.LoadSpec {
	return experiments.LoadSpec{
		Requests: 500,
		Clients:  16,
		Seed:     1,
		Data:     acmeair.DataSpec{Customers: 50, FlightsPerSegment: 3},
	}
}

// BenchmarkFig6bAPIUsage reports the paper's per-request async-API
// execution counts as benchmark metrics.
func BenchmarkFig6bAPIUsage(b *testing.B) {
	load := benchLoad()
	var row experiments.Fig6bRow
	for i := 0; i < b.N; i++ {
		var err error
		row, _, err = experiments.RunFig6b(load)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.NextTick, "nextTick/req")
	b.ReportMetric(row.Emitter, "emitter/req")
	b.ReportMetric(row.Promise, "promise/req")
}

// BenchmarkTableI runs the full bug corpus (buggy versions) per
// iteration — the cost of the paper's case-study sweep.
func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range casestudy.Table1() {
			res := casestudy.RunBuggy(c)
			if !res.Clean() {
				b.Fatalf("%s missed %v", c.ID, res.Missing)
			}
		}
	}
}

// BenchmarkGraphConstruction measures Async Graph build cost per
// scheduling event (the Figs. 3/5 machinery) on a promise+emitter mix.
func BenchmarkGraphConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		session := asyncg.New(asyncg.WithLoop(eventloop.Options{TickLimit: 100_000}))
		_, err := session.Run(func(ctx *asyncg.Context) {
			e := ctx.NewEmitter("bench")
			ctx.On(e, "x", asyncg.F("listener", func(args []asyncg.Value) asyncg.Value {
				return asyncg.Undefined
			}))
			for k := 0; k < 100; k++ {
				ctx.Emit(e, "x", k)
				p := ctx.Resolve(k)
				c := ctx.Then(p, asyncg.F("inc", func(args []asyncg.Value) asyncg.Value {
					return args[0].(int) + 1
				}), nil)
				ctx.Catch(c, asyncg.F("err", func(args []asyncg.Value) asyncg.Value {
					return asyncg.Undefined
				}))
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -------------------------------------------------------

// runAcmeAir executes the Fig. 6 AcmeAir run per iteration, with setup
// attaching the configuration under test to each fresh loop.
func runAcmeAir(b *testing.B, load experiments.LoadSpec, setup func(l *eventloop.Loop)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.RunAcmeAir(load, setup); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGraphOnly isolates the builder without detectors.
func BenchmarkAblationGraphOnly(b *testing.B) {
	runAcmeAir(b, benchLoad(), func(l *eventloop.Loop) {
		l.Probes().Attach(asyncgraph.NewBuilder(asyncgraph.DefaultConfig()))
	})
}

// BenchmarkAblationFullTracking is the default full configuration
// (builder + detectors, no debug stacks) — the baseline the
// -debug-stacks overhead is measured against.
func BenchmarkAblationFullTracking(b *testing.B) {
	runAcmeAir(b, benchLoad(), func(l *eventloop.Loop) {
		builder := asyncgraph.NewBuilder(asyncgraph.DefaultConfig())
		l.Probes().Attach(builder)
		l.Probes().Attach(detect.NewAnalyzer(builder, detect.DefaultConfig()))
	})
}

// BenchmarkAblationDebugStacks is the full configuration with
// Config.DebugStacks on: runtime.Callers capture plus frame resolution
// at every OB creation, CT trigger, and CR registration. The delta over
// BenchmarkAblationFullTracking is the cost EXPERIMENTS.md records for
// the -debug-stacks opt-in.
func BenchmarkAblationDebugStacks(b *testing.B) {
	runAcmeAir(b, benchLoad(), func(l *eventloop.Loop) {
		cfg := asyncgraph.DefaultConfig()
		cfg.DebugStacks = true
		builder := asyncgraph.NewBuilder(cfg)
		l.Probes().Attach(builder)
		l.Probes().Attach(detect.NewAnalyzer(builder, detect.DefaultConfig()))
	})
}

// --- Substrate micro-benchmarks --------------------------------------

// BenchmarkLoopNextTick measures raw microtask dispatch without hooks.
func BenchmarkLoopNextTick(b *testing.B) {
	b.ReportAllocs()
	l := eventloop.New(eventloop.Options{TickLimit: b.N + 10})
	remaining := b.N
	var tick *vm.Function
	tick = vm.NewFunc("tick", func([]vm.Value) vm.Value {
		remaining--
		if remaining > 0 {
			l.NextTick(loc.Here(), tick)
		}
		return vm.Undefined
	})
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		l.NextTick(loc.Here(), tick)
		return vm.Undefined
	})
	b.ResetTimer()
	if err := l.Run(main); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLoopTimers measures the timer heap under churn.
func BenchmarkLoopTimers(b *testing.B) {
	b.ReportAllocs()
	l := eventloop.New(eventloop.Options{TickLimit: b.N + 10})
	fired := 0
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		cb := vm.NewFunc("t", func([]vm.Value) vm.Value {
			fired++
			return vm.Undefined
		})
		for i := 0; i < b.N; i++ {
			l.SetTimeout(loc.Here(), cb, time.Duration(i%50)*time.Millisecond)
		}
		return vm.Undefined
	})
	b.ResetTimer()
	if err := l.Run(main); err != nil {
		b.Fatal(err)
	}
	if fired != b.N {
		b.Fatalf("fired %d/%d", fired, b.N)
	}
}

// BenchmarkEmitterEmit measures synchronous listener dispatch.
func BenchmarkEmitterEmit(b *testing.B) {
	b.ReportAllocs()
	l := eventloop.New(eventloop.Options{})
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		e := events.New(l, "bench", loc.Here())
		e.On(loc.Here(), "x", vm.NewFunc("h", func([]vm.Value) vm.Value { return vm.Undefined }))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Emit(loc.Here(), "x", i)
		}
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPromiseChain measures a resolve→then→then chain per op.
func BenchmarkPromiseChain(b *testing.B) {
	b.ReportAllocs()
	l := eventloop.New(eventloop.Options{TickLimit: 10*b.N + 100})
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		inc := vm.NewFunc("inc", func(args []vm.Value) vm.Value { return args[0].(int) + 1 })
		for i := 0; i < b.N; i++ {
			promise.Resolved(l, loc.Here(), i).
				Then(loc.Here(), inc, nil).
				Then(loc.Here(), inc, nil)
		}
		return vm.Undefined
	})
	b.ResetTimer()
	if err := l.Run(main); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAsyncAwait measures the goroutine-gated async/await frames.
func BenchmarkAsyncAwait(b *testing.B) {
	b.ReportAllocs()
	l := eventloop.New(eventloop.Options{TickLimit: 10*b.N + 100})
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		for i := 0; i < b.N; i++ {
			data := promise.Resolved(l, loc.Here(), i)
			promise.Go(l, loc.Here(), "af", func(aw *promise.Awaiter) vm.Value {
				return aw.Await(loc.Here(), data)
			})
		}
		return vm.Undefined
	})
	b.ResetTimer()
	if err := l.Run(main); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHTTPRoundTrip measures one full simulated HTTP exchange.
func BenchmarkHTTPRoundTrip(b *testing.B) {
	b.ReportAllocs()
	session := asyncg.New(
		asyncg.Disabled(),
		asyncg.WithLoop(eventloop.Options{TickLimit: 100 * (b.N + 10)}),
	)
	served := 0
	_, err := session.Run(func(ctx *asyncg.Context) {
		srv := ctx.CreateServer(asyncg.F("h", func(args []asyncg.Value) asyncg.Value {
			served++
			args[1].(*asyncg.ServerResponse).EndString(loc.Here(), "ok")
			return asyncg.Undefined
		}))
		if err := ctx.ListenHTTP(srv, 5000); err != nil {
			b.Fatal(err)
		}
		var issue func(k int)
		issue = func(k int) {
			if k == 0 {
				return
			}
			ctx.HTTPGet(5000, "/", asyncg.F("resp", func(args []asyncg.Value) asyncg.Value {
				issue(k - 1)
				return asyncg.Undefined
			}))
		}
		b.ResetTimer()
		issue(b.N)
	})
	if err != nil {
		b.Fatal(err)
	}
	if served != b.N {
		b.Fatalf("served %d/%d", served, b.N)
	}
}

// BenchmarkProbesInactive quantifies the "no overhead when disabled"
// claim: the same nextTick loop with zero attached hooks vs an attached
// builder is compared via BenchmarkLoopNextTick / this benchmark.
func BenchmarkProbesActiveNextTick(b *testing.B) {
	b.ReportAllocs()
	l := eventloop.New(eventloop.Options{TickLimit: b.N + 10})
	builder := asyncgraph.NewBuilder(asyncgraph.DefaultConfig())
	l.Probes().Attach(builder)
	remaining := b.N
	var tick *vm.Function
	tick = vm.NewFunc("tick", func([]vm.Value) vm.Value {
		remaining--
		if remaining > 0 {
			l.NextTick(loc.Here(), tick)
		}
		return vm.Undefined
	})
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		l.NextTick(loc.Here(), tick)
		return vm.Undefined
	})
	b.ResetTimer()
	if err := l.Run(main); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMongosimQueryCompile measures the query-language front end.
func BenchmarkMongosimQueryCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mongosim.Compile(`originPort == "SFO" && destPort == "JFK" && price < 500`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMongosimQueryMatch measures compiled-query evaluation.
func BenchmarkMongosimQueryMatch(b *testing.B) {
	expr := mongosim.MustCompile(`originPort == "SFO" && destPort == "JFK" && price < 500`)
	doc := mongosim.Document{"originPort": "SFO", "destPort": "JFK", "price": 400}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !expr.Match(doc) {
			b.Fatal("no match")
		}
	}
}

// BenchmarkExportDOT measures DOT generation on a mid-sized graph.
func BenchmarkExportDOT(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.DOT("bench")) == 0 {
			b.Fatal("empty DOT")
		}
	}
}

// BenchmarkExportSVG measures SVG generation on a mid-sized graph.
func BenchmarkExportSVG(b *testing.B) {
	g := benchGraph(b)
	var sb strings.Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.Reset()
		if err := g.WriteSVG(&sb, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExportJSONRoundTrip measures serialize+parse of a graph log.
func BenchmarkExportJSONRoundTrip(b *testing.B) {
	g := benchGraph(b)
	var sb strings.Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.Reset()
		if err := g.WriteJSON(&sb); err != nil {
			b.Fatal(err)
		}
		if _, err := asyncgraph.ReadJSON(strings.NewReader(sb.String())); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGraph builds a representative graph once per benchmark.
func benchGraph(b *testing.B) *asyncgraph.Graph {
	b.Helper()
	session := asyncg.New(asyncg.WithLoop(eventloop.Options{TickLimit: 100_000}))
	report, err := session.Run(func(ctx *asyncg.Context) {
		e := ctx.NewEmitter("bench")
		ctx.On(e, "x", asyncg.F("l", func(args []asyncg.Value) asyncg.Value { return asyncg.Undefined }))
		for k := 0; k < 200; k++ {
			ctx.Emit(e, "x", k)
			c := ctx.Then(ctx.Resolve(k), asyncg.F("inc", func(args []asyncg.Value) asyncg.Value {
				return args[0].(int) + 1
			}), nil)
			ctx.Catch(c, asyncg.F("e", func(args []asyncg.Value) asyncg.Value { return asyncg.Undefined }))
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	return report.Graph
}
