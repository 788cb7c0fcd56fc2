package asyncg_test

import (
	"strings"
	"testing"
	"time"

	"asyncg"
	"asyncg/internal/detect"
	"asyncg/internal/eventloop"
	"asyncg/internal/loc"
)

// lochere captures the test's call site for direct internal-API use.
func lochere() loc.Loc { return loc.Caller() }

func TestSessionRunBuildsGraph(t *testing.T) {
	session := asyncg.New()
	report, err := session.Run(func(ctx *asyncg.Context) {
		ctx.NextTick(asyncg.F("cb", func(args []asyncg.Value) asyncg.Value {
			return asyncg.Undefined
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Graph == nil || len(report.Graph.Ticks) != 2 {
		t.Fatalf("graph = %+v", report.Graph)
	}
	if len(report.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", report.Anomalies)
	}
}

func TestSessionDisableTool(t *testing.T) {
	session := asyncg.New(asyncg.Disabled())
	report, err := session.Run(func(ctx *asyncg.Context) {
		ctx.NextTick(asyncg.F("cb", func(args []asyncg.Value) asyncg.Value {
			return asyncg.Undefined
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Graph != nil || len(report.Warnings) != 0 {
		t.Fatal("tool artifacts present despite DisableTool")
	}
	if report.Ticks != 2 {
		t.Fatalf("ticks = %d", report.Ticks)
	}
}

func TestSessionDetectsBugs(t *testing.T) {
	session := asyncg.New()
	report, err := session.Run(func(ctx *asyncg.Context) {
		e := ctx.NewEmitter("e")
		ctx.Emit(e, "ghost")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.HasWarning(detect.CatDeadEmit) {
		t.Fatalf("warnings = %v", report.Warnings)
	}
	if got := len(report.WarningsOf(detect.CatDeadEmit)); got != 1 {
		t.Fatalf("dead-emit warnings = %d", got)
	}
}

func TestSessionTickLimitReturnsTruncatedGraph(t *testing.T) {
	session := asyncg.New(asyncg.WithLoop(eventloop.Options{TickLimit: 20}))
	report, err := session.Run(func(ctx *asyncg.Context) {
		var loop *asyncg.Function
		loop = asyncg.F("loop", func(args []asyncg.Value) asyncg.Value {
			ctx.NextTick(loop)
			return asyncg.Undefined
		})
		ctx.NextTick(loop)
	})
	if err != eventloop.ErrTickLimit {
		t.Fatalf("err = %v", err)
	}
	if report.Graph == nil || len(report.Graph.Ticks) < 10 {
		t.Fatal("no truncated graph")
	}
	if !report.HasWarning(detect.CatRecursiveMicrotask) {
		t.Fatalf("warnings = %v", report.Warnings)
	}
}

func TestContextTimersAndClocks(t *testing.T) {
	session := asyncg.New()
	var at time.Duration
	_, err := session.Run(func(ctx *asyncg.Context) {
		ctx.SetTimeout(asyncg.F("late", func(args []asyncg.Value) asyncg.Value {
			at = ctx.Now()
			return asyncg.Undefined
		}), 30*time.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if at < 30*time.Second {
		t.Fatalf("timer ran at %v", at)
	}
}

func TestContextCallPropagatesThrow(t *testing.T) {
	session := asyncg.New()
	report, err := session.Run(func(ctx *asyncg.Context) {
		ctx.Call(asyncg.F("boom", func(args []asyncg.Value) asyncg.Value {
			asyncg.Throw("bang")
			return asyncg.Undefined
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Uncaught) != 1 {
		t.Fatalf("uncaught = %v", report.Uncaught)
	}
}

func TestContextAsyncAwait(t *testing.T) {
	session := asyncg.New()
	var got asyncg.Value
	_, err := session.Run(func(ctx *asyncg.Context) {
		data := ctx.Resolve(21)
		done := ctx.Async("doubler", func(aw *asyncg.Awaiter) asyncg.Value {
			return ctx.Await(aw, data).(int) * 2
		})
		use := ctx.Then(done, asyncg.F("use", func(args []asyncg.Value) asyncg.Value {
			got = args[0]
			return asyncg.Undefined
		}), nil)
		ctx.Catch(use, asyncg.F("err", func(args []asyncg.Value) asyncg.Value {
			return asyncg.Undefined
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got = %v", got)
	}
}

func TestContextHTTPAndDB(t *testing.T) {
	session := asyncg.New()
	var status int
	_, err := session.Run(func(ctx *asyncg.Context) {
		users := ctx.DB().C("users")
		users.InsertSync(asyncg.Document{"name": "fred"})
		srv := ctx.CreateServer(asyncg.F("handler", func(args []asyncg.Value) asyncg.Value {
			res := args[1].(*asyncg.ServerResponse)
			users.FindOne(lochere(), `name == "fred"`, asyncg.F("found", func(args []asyncg.Value) asyncg.Value {
				res.WriteHead(200).End(lochere(), []byte("ok"))
				return asyncg.Undefined
			}))
			return asyncg.Undefined
		}))
		if err := ctx.ListenHTTP(srv, 8080); err != nil {
			t.Error(err)
		}
		ctx.HTTPGet(8080, "/", asyncg.F("resp", func(args []asyncg.Value) asyncg.Value {
			status = args[0].(*asyncg.IncomingMessage).StatusCode
			return asyncg.Undefined
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
}

func TestGraphExportsFromFacade(t *testing.T) {
	session := asyncg.New()
	report, err := session.Run(func(ctx *asyncg.Context) {
		ctx.SetImmediate(asyncg.F("x", func(args []asyncg.Value) asyncg.Value {
			return asyncg.Undefined
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if dot := report.Graph.DOT("t"); !strings.Contains(dot, "digraph") {
		t.Fatal("bad DOT")
	}
	var sb strings.Builder
	if err := report.Graph.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestSessionEnableDisableMidRun(t *testing.T) {
	session := asyncg.New()
	report, err := session.Run(func(ctx *asyncg.Context) {
		ctx.NextTick(asyncg.F("observed1", func(args []asyncg.Value) asyncg.Value {
			session.Disable()
			ctx.NextTick(asyncg.F("hidden", func(args []asyncg.Value) asyncg.Value {
				session.Enable()
				ctx.NextTick(asyncg.F("observed2", func(args []asyncg.Value) asyncg.Value {
					return asyncg.Undefined
				}))
				return asyncg.Undefined
			}))
			return asyncg.Undefined
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, n := range report.Graph.Nodes {
		names = append(names, n.Func)
	}
	sawHiddenCE := false
	sawObserved2 := false
	for _, n := range report.Graph.Nodes {
		if n.Func == "hidden" && n.Kind.String() == "CE" {
			sawHiddenCE = true
		}
		if n.Func == "observed2" && n.Kind.String() == "CE" {
			sawObserved2 = true
		}
	}
	if sawHiddenCE {
		t.Fatalf("execution observed while disabled: %v", names)
	}
	if !sawObserved2 {
		t.Fatalf("execution missed after re-enable: %v", names)
	}
}

func TestContextFS(t *testing.T) {
	session := asyncg.New()
	var got string
	_, err := session.Run(func(ctx *asyncg.Context) {
		ctx.FS().Seed("/greeting", []byte("hello"))
		ctx.FS().ReadFile(lochere(), "/greeting", asyncg.F("read", func(args []asyncg.Value) asyncg.Value {
			got = string(args[1].([]byte))
			return asyncg.Undefined
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("got = %q", got)
	}
}

func TestContextCells(t *testing.T) {
	session := asyncg.New()
	_, err := session.Run(func(ctx *asyncg.Context) {
		c := ctx.NewCell("x", 1)
		if ctx.CellGet(c) != 1 {
			t.Error("initial value lost")
		}
		ctx.CellSet(c, 2)
		if ctx.CellGet(c) != 2 {
			t.Error("write lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestContextQueueMicrotask(t *testing.T) {
	session := asyncg.New()
	var order []string
	_, err := session.Run(func(ctx *asyncg.Context) {
		ctx.QueueMicrotask(asyncg.F("m", func(args []asyncg.Value) asyncg.Value {
			order = append(order, "microtask")
			return asyncg.Undefined
		}))
		ctx.NextTick(asyncg.F("t", func(args []asyncg.Value) asyncg.Value {
			order = append(order, "nextTick")
			return asyncg.Undefined
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "nextTick" || order[1] != "microtask" {
		t.Fatalf("order = %v", order)
	}
}

func TestOnceEventBridgesEmitterToPromise(t *testing.T) {
	session := asyncg.New()
	var got asyncg.Value
	_, err := session.Run(func(ctx *asyncg.Context) {
		e := ctx.NewEmitter("source")
		ctx.Async("waiter", func(aw *asyncg.Awaiter) asyncg.Value {
			got = ctx.Await(aw, ctx.OnceEvent(e, "ready"))
			return asyncg.Undefined
		})
		ctx.SetTimeout(asyncg.F("fire", func(args []asyncg.Value) asyncg.Value {
			ctx.Emit(e, "ready", "payload")
			ctx.Emit(e, "ready", "ignored") // once: only the first counts
			return asyncg.Undefined
		}), time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "payload" {
		t.Fatalf("got = %v", got)
	}
}
