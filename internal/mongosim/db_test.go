package mongosim

import (
	"reflect"
	"testing"

	"asyncg/internal/eventloop"
	"asyncg/internal/loc"
	"asyncg/internal/promise"
	"asyncg/internal/trace"
	"asyncg/internal/vm"
)

func run(t *testing.T, program func(l *eventloop.Loop, db *DB)) *eventloop.Loop {
	t.Helper()
	l := eventloop.New(eventloop.Options{TickLimit: 100_000})
	db := New(l)
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		program(l, db)
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if got := l.Uncaught(); len(got) != 0 {
		t.Fatalf("uncaught: %v", got)
	}
	return l
}

func cb(name string, f func(err vm.Value, res vm.Value)) *vm.Function {
	return vm.NewFunc(name, func(args []vm.Value) vm.Value {
		f(vm.Arg(args, 0), vm.Arg(args, 1))
		return vm.Undefined
	})
}

func TestInsertAndFind(t *testing.T) {
	var found []Document
	run(t, func(l *eventloop.Loop, db *DB) {
		c := db.C("flights")
		c.Insert(loc.Here(), Document{"from": "SFO", "to": "JFK", "price": 300}, nil)
		c.Insert(loc.Here(), Document{"from": "SFO", "to": "LAX", "price": 120}, cb("ins", func(err, res vm.Value) {
			c.Find(loc.Here(), `from == "SFO" && price < 200`, cb("find", func(err, res vm.Value) {
				if !vm.IsUndefined(err) {
					t.Errorf("find err = %v", err)
				}
				found = res.([]Document)
			}))
		}))
	})
	if len(found) != 1 || found[0]["to"] != "LAX" {
		t.Fatalf("found = %v", found)
	}
}

func TestCallbacksAreAsynchronous(t *testing.T) {
	var order []string
	run(t, func(l *eventloop.Loop, db *DB) {
		db.C("x").Insert(loc.Here(), Document{"a": 1}, cb("ins", func(err, res vm.Value) {
			order = append(order, "callback")
		}))
		order = append(order, "sync")
	})
	if len(order) != 2 || order[0] != "sync" {
		t.Fatalf("order = %v", order)
	}
}

func TestFindOne(t *testing.T) {
	var got vm.Value
	run(t, func(l *eventloop.Loop, db *DB) {
		c := db.C("users")
		c.InsertSync(Document{"name": "fred", "age": 30})
		c.InsertSync(Document{"name": "ginger", "age": 40})
		c.FindOne(loc.Here(), `age > 35`, cb("f1", func(err, res vm.Value) { got = res }))
	})
	doc, ok := got.(Document)
	if !ok || doc["name"] != "ginger" {
		t.Fatalf("got = %#v", got)
	}
}

func TestFindOneNoMatchYieldsUndefined(t *testing.T) {
	var got vm.Value = "sentinel"
	run(t, func(l *eventloop.Loop, db *DB) {
		db.C("users").FindOne(loc.Here(), `name == "nobody"`, cb("f1", func(err, res vm.Value) { got = res }))
	})
	if !vm.IsUndefined(got) {
		t.Fatalf("got = %#v", got)
	}
}

func TestUpdateMergesFields(t *testing.T) {
	var n vm.Value
	var after []Document
	run(t, func(l *eventloop.Loop, db *DB) {
		c := db.C("bookings")
		c.InsertSync(Document{"user": "fred", "state": "open"})
		c.InsertSync(Document{"user": "fred", "state": "open"})
		c.InsertSync(Document{"user": "ginger", "state": "open"})
		c.Update(loc.Here(), `user == "fred"`, Document{"state": "cancelled"}, cb("u", func(err, res vm.Value) {
			n = res
			c.Find(loc.Here(), `state == "cancelled"`, cb("f", func(err, res vm.Value) {
				after = res.([]Document)
			}))
		}))
	})
	if n != 2 || len(after) != 2 {
		t.Fatalf("n=%v after=%v", n, after)
	}
}

func TestRemove(t *testing.T) {
	var n vm.Value
	run(t, func(l *eventloop.Loop, db *DB) {
		c := db.C("sessions")
		c.InsertSync(Document{"id": 1})
		c.InsertSync(Document{"id": 2})
		c.Remove(loc.Here(), `id == 1`, cb("rm", func(err, res vm.Value) { n = res }))
	})
	if n != 1 {
		t.Fatalf("n = %v", n)
	}
}

func TestCount(t *testing.T) {
	var n vm.Value
	run(t, func(l *eventloop.Loop, db *DB) {
		c := db.C("flights")
		for i := 0; i < 5; i++ {
			c.InsertSync(Document{"price": 100 * i})
		}
		c.Count(loc.Here(), `price >= 200`, cb("cnt", func(err, res vm.Value) { n = res }))
	})
	if n != 3 {
		t.Fatalf("n = %v", n)
	}
}

func TestBadQueryDeliversError(t *testing.T) {
	var gotErr vm.Value
	run(t, func(l *eventloop.Loop, db *DB) {
		db.C("x").Find(loc.Here(), `broken ==`, cb("f", func(err, res vm.Value) { gotErr = err }))
	})
	if vm.IsUndefined(gotErr) || gotErr == nil {
		t.Fatal("no error delivered for bad query")
	}
}

func TestCursorStreamsDocuments(t *testing.T) {
	var seen int
	var ended bool
	run(t, func(l *eventloop.Loop, db *DB) {
		c := db.C("flights")
		for i := 0; i < 4; i++ {
			c.InsertSync(Document{"i": i})
		}
		cur := c.FindCursor(loc.Here(), `i < 3`)
		cur.On(loc.Here(), "data", vm.NewFunc("onData", func(args []vm.Value) vm.Value {
			seen++
			return vm.Undefined
		}))
		cur.On(loc.Here(), "end", vm.NewFunc("onEnd", func(args []vm.Value) vm.Value {
			ended = true
			return vm.Undefined
		}))
	})
	if seen != 3 || !ended {
		t.Fatalf("seen=%d ended=%v", seen, ended)
	}
}

func TestPromiseInterface(t *testing.T) {
	var got vm.Value
	run(t, func(l *eventloop.Loop, db *DB) {
		c := db.C("customers")
		c.InsertSync(Document{"id": "fred", "status": "gold"})
		c.FindOneP(loc.Here(), `id == "fred"`).
			Then(loc.Here(), vm.NewFunc("use", func(args []vm.Value) vm.Value {
				got = args[0]
				return vm.Undefined
			}), nil).
			Catch(loc.Here(), vm.NewFunc("err", func(args []vm.Value) vm.Value {
				t.Errorf("rejected: %v", args[0])
				return vm.Undefined
			}))
	})
	doc, ok := got.(Document)
	if !ok || doc["status"] != "gold" {
		t.Fatalf("got = %#v", got)
	}
}

func TestPromiseRejectionOnBadQuery(t *testing.T) {
	var reason vm.Value
	run(t, func(l *eventloop.Loop, db *DB) {
		db.C("x").FindP(loc.Here(), `bad ==`).Catch(loc.Here(),
			vm.NewFunc("c", func(args []vm.Value) vm.Value {
				reason = args[0]
				return vm.Undefined
			}))
	})
	if reason == nil {
		t.Fatal("no rejection")
	}
}

func TestPromiseChainAcrossOperations(t *testing.T) {
	var final vm.Value
	run(t, func(l *eventloop.Loop, db *DB) {
		c := db.C("bookings")
		c.InsertP(loc.Here(), Document{"user": "fred", "flight": "SFO-JFK"}).
			Then(loc.Here(), vm.NewFunc("thenFind", func(args []vm.Value) vm.Value {
				return c.FindP(loc.Here(), `user == "fred"`)
			}), nil).
			Then(loc.Here(), vm.NewFunc("thenCount", func(args []vm.Value) vm.Value {
				return len(args[0].([]Document))
			}), nil).
			Then(loc.Here(), vm.NewFunc("final", func(args []vm.Value) vm.Value {
				final = args[0]
				return vm.Undefined
			}), nil).
			Catch(loc.Here(), vm.NewFunc("err", func(args []vm.Value) vm.Value {
				t.Errorf("rejected: %v", args[0])
				return vm.Undefined
			}))
	})
	if final != 1 {
		t.Fatalf("final = %v", final)
	}
}

func TestAwaitOnDBPromises(t *testing.T) {
	var count int
	run(t, func(l *eventloop.Loop, db *DB) {
		c := db.C("flights")
		c.InsertSync(Document{"from": "SFO"})
		c.InsertSync(Document{"from": "SFO"})
		promise.Go(l, loc.Here(), "handler", func(aw *promise.Awaiter) vm.Value {
			docs := aw.Await(loc.Here(), c.FindP(loc.Here(), `from == "SFO"`)).([]Document)
			count = len(docs)
			return vm.Undefined
		})
	})
	if count != 2 {
		t.Fatalf("count = %d", count)
	}
}

func TestDriverTicksGenerateNextTickActivity(t *testing.T) {
	l := eventloop.New(eventloop.Options{TickLimit: 10_000})
	db := New(l)
	metrics := trace.NewMetrics(l)
	l.Probes().Attach(metrics)
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		db.C("x").Find(loc.Here(), ``, cb("f", func(err, res vm.Value) {}))
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	if got := metrics.Snapshot().PerAPI["process.nextTick"].Count; got != DriverTicks {
		t.Fatalf("driver nextTick executions = %d, want %d", got, DriverTicks)
	}
}

// TestUpdateIDRejected: a set holding _id fails before it writes any
// field, whichever order the set's map yields its keys in, on an
// unsealed and on a sealed DB (whose undo log must stay empty). A set
// that matches nothing still succeeds with 0 documents.
func TestUpdateIDRejected(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		for i := 0; i < 50; i++ {
			var gotErr, gotN, missErr, missN vm.Value
			var db *DB
			run(t, func(l *eventloop.Loop, d *DB) {
				db = d
				c := db.C("x")
				c.InsertSync(Document{"a": 1})
				if sealed {
					db.Seal()
				}
				c.Update(loc.Here(), ``, Document{"_id": 99, "b": 2, "c": 3}, cb("u", func(err, n vm.Value) { gotErr, gotN = err, n }))
				c.Update(loc.Here(), `a == 2`, Document{"_id": 99}, cb("miss", func(err, n vm.Value) { missErr, missN = err, n }))
			})
			if vm.IsUndefined(gotErr) || gotN != 0 {
				t.Fatalf("sealed=%v: updating _id gave err %v, n %v", sealed, gotErr, gotN)
			}
			if !vm.IsUndefined(missErr) || missN != 0 {
				t.Fatalf("sealed=%v: a set with _id that matches nothing gave err %v, n %v", sealed, missErr, missN)
			}
			if got, want := db.C("x").docs[0], (Document{"_id": int64(1), "a": 1}); !reflect.DeepEqual(got, want) {
				t.Fatalf("sealed=%v: rejected update left %v, want %v", sealed, got, want)
			}
			if len(db.undo) != 0 {
				t.Fatalf("sealed=%v: rejected update logged %d undo entries", sealed, len(db.undo))
			}
		}
	}
}

func TestFindWithSortAndLimit(t *testing.T) {
	var got []Document
	run(t, func(l *eventloop.Loop, db *DB) {
		c := db.C("flights")
		for _, price := range []int{300, 100, 500, 200, 400} {
			c.InsertSync(Document{"price": price})
		}
		c.FindWith(loc.Here(), ``, FindOptions{SortBy: "price", Limit: 3},
			cb("f", func(err, res vm.Value) {
				got = res.([]Document)
			}))
	})
	if len(got) != 3 {
		t.Fatalf("got %d docs", len(got))
	}
	for i, want := range []int{100, 200, 300} {
		if got[i]["price"] != want {
			t.Fatalf("got[%d] = %v, want %d", i, got[i]["price"], want)
		}
	}
}

func TestFindWithDescendingAndSkip(t *testing.T) {
	var got []Document
	run(t, func(l *eventloop.Loop, db *DB) {
		c := db.C("x")
		for _, name := range []string{"b", "d", "a", "c"} {
			c.InsertSync(Document{"name": name})
		}
		c.FindWith(loc.Here(), ``, FindOptions{SortBy: "name", Descending: true, Skip: 1},
			cb("f", func(err, res vm.Value) {
				got = res.([]Document)
			}))
	})
	want := []string{"c", "b", "a"}
	if len(got) != len(want) {
		t.Fatalf("got = %v", got)
	}
	for i := range want {
		if got[i]["name"] != want[i] {
			t.Fatalf("got[%d] = %v", i, got[i]["name"])
		}
	}
}

func TestFindWithSkipPastEnd(t *testing.T) {
	var got vm.Value = "sentinel"
	run(t, func(l *eventloop.Loop, db *DB) {
		c := db.C("x")
		c.InsertSync(Document{"a": 1})
		c.FindWith(loc.Here(), ``, FindOptions{Skip: 10},
			cb("f", func(err, res vm.Value) { got = res }))
	})
	docs, _ := got.([]Document)
	if len(docs) != 0 {
		t.Fatalf("got = %v", got)
	}
}

func TestFindWithSortStability(t *testing.T) {
	// Equal keys keep insertion order (stable sort).
	var got []Document
	run(t, func(l *eventloop.Loop, db *DB) {
		c := db.C("x")
		c.InsertSync(Document{"k": 1, "tag": "first"})
		c.InsertSync(Document{"k": 1, "tag": "second"})
		c.InsertSync(Document{"k": 0, "tag": "zero"})
		c.FindWith(loc.Here(), ``, FindOptions{SortBy: "k"},
			cb("f", func(err, res vm.Value) { got = res.([]Document) }))
	})
	if got[0]["tag"] != "zero" || got[1]["tag"] != "first" || got[2]["tag"] != "second" {
		t.Fatalf("got = %v", got)
	}
}

func TestDistinct(t *testing.T) {
	var got []any
	run(t, func(l *eventloop.Loop, db *DB) {
		c := db.C("flights")
		for _, from := range []string{"SFO", "JFK", "SFO", "LAX", "JFK"} {
			c.InsertSync(Document{"from": from})
		}
		c.Distinct(loc.Here(), "from", ``, cb("d", func(err, res vm.Value) {
			got = res.([]any)
		}))
	})
	want := []any{"SFO", "JFK", "LAX"}
	if len(got) != len(want) {
		t.Fatalf("got = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got = %v, want %v", got, want)
		}
	}
}

func TestDistinctWithQuery(t *testing.T) {
	var got []any
	run(t, func(l *eventloop.Loop, db *DB) {
		c := db.C("flights")
		c.InsertSync(Document{"from": "SFO", "price": 100})
		c.InsertSync(Document{"from": "JFK", "price": 900})
		c.InsertSync(Document{"from": "LAX", "price": 150})
		c.Distinct(loc.Here(), "from", `price < 500`, cb("d", func(err, res vm.Value) {
			got = res.([]any)
		}))
	})
	if len(got) != 2 || got[0] != "SFO" || got[1] != "LAX" {
		t.Fatalf("got = %v", got)
	}
}
