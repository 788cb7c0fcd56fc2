package casestudy

import (
	"time"

	"asyncg"
	"asyncg/internal/asyncgraph"
	"asyncg/internal/detect"
	"asyncg/internal/loc"
	"asyncg/internal/mongosim"
)

// caseSO50996870: database promises chained for dependent queries, but a
// reaction forgets its return, disconnecting the inner promise from the
// chain — the consumer receives undefined.
func caseSO50996870() Case {
	return Case{
		ID:        "SO-50996870",
		Title:     "missing return disconnects the DB promise chain",
		Category:  "Broken Promise Chain",
		Expect:    []detect.Category{detect.CatBrokenChain, detect.CatMissingReturn},
		TickLimit: 2000,
		Buggy: func(ctx *asyncg.Context) {
			users := ctx.DB().C("users")
			users.InsertSync(mongosim.Document{"name": "fred", "group": "admins"})
			groups := ctx.DB().C("groups")
			groups.InsertSync(mongosim.Document{"name": "admins", "quota": 100})
			chain := ctx.Then(users.FindOneP(loc.Here(), `name == "fred"`),
				asyncg.F("loadGroup", func(args []asyncg.Value) asyncg.Value {
					user := args[0].(mongosim.Document)
					inner := groups.FindOneP(loc.Here(), `name == "`+user["group"].(string)+`"`)
					ctx.Then(inner, asyncg.F("logGroup", func(args []asyncg.Value) asyncg.Value {
						return args[0]
					}), nil)
					return asyncg.Undefined // BUG: should be `return inner`
				}), nil)
			chain = ctx.Then(chain, asyncg.F("useGroup", func(args []asyncg.Value) asyncg.Value {
				// args[0] is undefined here — the chain is broken.
				return asyncg.Undefined
			}), nil)
			ctx.Catch(chain, asyncg.F("onErr", func(args []asyncg.Value) asyncg.Value {
				return asyncg.Undefined
			}))
		},
		Fixed: func(ctx *asyncg.Context) {
			users := ctx.DB().C("users")
			users.InsertSync(mongosim.Document{"name": "fred", "group": "admins"})
			groups := ctx.DB().C("groups")
			groups.InsertSync(mongosim.Document{"name": "admins", "quota": 100})
			chain := ctx.Then(users.FindOneP(loc.Here(), `name == "fred"`),
				asyncg.F("loadGroup", func(args []asyncg.Value) asyncg.Value {
					user := args[0].(mongosim.Document)
					return groups.FindOneP(loc.Here(), `name == "`+user["group"].(string)+`"`)
				}), nil)
			chain = ctx.Then(chain, asyncg.F("useGroup", func(args []asyncg.Value) asyncg.Value {
				return asyncg.Undefined
			}), nil)
			ctx.Catch(chain, asyncg.F("onErr", func(args []asyncg.Value) asyncg.Value {
				return asyncg.Undefined
			}))
		},
	}
}

// caseSO43422932: an async function is called without await, so its
// promise — not the fetched value — flows into the rest of the program
// and nobody ever reacts to it.
func caseSO43422932() Case {
	fetchJSON := func(ctx *asyncg.Context) *asyncg.Promise {
		data := ctx.NewPromise(nil)
		ctx.SetTimeout(asyncg.F("timeoutResolve", func(args []asyncg.Value) asyncg.Value {
			data.Resolve(loc.Here(), map[string]asyncg.Value{"json": "payload"})
			return asyncg.Undefined
		}), 5*time.Millisecond)
		return ctx.Async("fetchJSON", func(aw *asyncg.Awaiter) asyncg.Value {
			return ctx.Await(aw, data)
		})
	}
	return Case{
		ID:       "SO-43422932",
		Title:    "async function called without await",
		Category: "Missing Reaction",
		Expect:   []detect.Category{detect.CatMissingReaction},
		Buggy: func(ctx *asyncg.Context) {
			result := fetchJSON(ctx) // BUG: missing await
			_ = result               // used as if it were the JSON value
		},
		Fixed: func(ctx *asyncg.Context) {
			top := ctx.Async("main", func(aw *asyncg.Awaiter) asyncg.Value {
				result := ctx.Await(aw, fetchJSON(ctx))
				_ = result
				return asyncg.Undefined
			})
			ctx.Catch(top, asyncg.F("topErr", func(args []asyncg.Value) asyncg.Value {
				return asyncg.Undefined
			}))
		},
	}
}

// caseGHVuex2: action functions each perform async work and produce a
// promise; the orchestrating then-callback never returns (or collects)
// them, so the chain continues with undefined.
func caseGHVuex2() Case {
	return Case{
		ID:        "GH-vuex-2",
		Title:     "then callback ignores the promises its actions produce",
		Category:  "Missing Return In Then",
		Expect:    []detect.Category{detect.CatMissingReturn},
		TickLimit: 2000,
		Buggy: func(ctx *asyncg.Context) {
			runAction := func(name string) *asyncg.Promise {
				p := ctx.NewPromise(nil)
				ctx.SetTimeout(asyncg.F(name+"Done", func(args []asyncg.Value) asyncg.Value {
					p.Resolve(loc.Here(), name)
					return asyncg.Undefined
				}), time.Millisecond)
				return p
			}
			chain := ctx.Then(ctx.Resolve("start"),
				asyncg.F("dispatchActions", func(args []asyncg.Value) asyncg.Value {
					a := runAction("a")
					b := runAction("b")
					ctx.Catch(a, asyncg.F("aErr", func([]asyncg.Value) asyncg.Value { return asyncg.Undefined }))
					ctx.Catch(b, asyncg.F("bErr", func([]asyncg.Value) asyncg.Value { return asyncg.Undefined }))
					return asyncg.Undefined // BUG: should return Promise.all(a, b)
				}), nil)
			chain = ctx.Then(chain, asyncg.F("afterActions", func(args []asyncg.Value) asyncg.Value {
				// Runs before the actions finish; args[0] is undefined.
				return asyncg.Undefined
			}), nil)
			ctx.Catch(chain, asyncg.F("onErr", func([]asyncg.Value) asyncg.Value { return asyncg.Undefined }))
		},
		Fixed: func(ctx *asyncg.Context) {
			runAction := func(name string) *asyncg.Promise {
				p := ctx.NewPromise(nil)
				ctx.SetTimeout(asyncg.F(name+"Done", func(args []asyncg.Value) asyncg.Value {
					p.Resolve(loc.Here(), name)
					return asyncg.Undefined
				}), time.Millisecond)
				return p
			}
			chain := ctx.Then(ctx.Resolve("start"),
				asyncg.F("dispatchActions", func(args []asyncg.Value) asyncg.Value {
					return ctx.All(runAction("a"), runAction("b"))
				}), nil)
			chain = ctx.Then(chain, asyncg.F("afterActions", func(args []asyncg.Value) asyncg.Value {
				return asyncg.Undefined
			}), nil)
			ctx.Catch(chain, asyncg.F("onErr", func([]asyncg.Value) asyncg.Value { return asyncg.Undefined }))
		},
	}
}

// caseGHFlock13: a multi-step migration promise chain with no rejection
// handler anywhere — an error in any step is silently lost. AsyncG finds
// it structurally, without an exception being thrown.
func caseGHFlock13() Case {
	return Case{
		ID:        "GH-flock-13",
		Title:     "migration chain without exception handler",
		Category:  "Missing Exceptional Reaction",
		Expect:    []detect.Category{detect.CatMissingRejectHandler},
		TickLimit: 2000,
		Buggy: func(ctx *asyncg.Context) {
			migrations := ctx.DB().C("migrations")
			chain := ctx.Then(migrations.InsertP(loc.Here(), mongosim.Document{"step": 1}),
				asyncg.F("step2", func(args []asyncg.Value) asyncg.Value {
					return migrations.InsertP(loc.Here(), mongosim.Document{"step": 2})
				}), nil)
			ctx.Then(chain, asyncg.F("step3", func(args []asyncg.Value) asyncg.Value {
				return migrations.InsertP(loc.Here(), mongosim.Document{"step": 3})
			}), nil)
			// BUG: no .catch — a failing migration would vanish.
		},
		Fixed: func(ctx *asyncg.Context) {
			migrations := ctx.DB().C("migrations")
			chain := ctx.Then(migrations.InsertP(loc.Here(), mongosim.Document{"step": 1}),
				asyncg.F("step2", func(args []asyncg.Value) asyncg.Value {
					return migrations.InsertP(loc.Here(), mongosim.Document{"step": 2})
				}), nil)
			chain = ctx.Then(chain, asyncg.F("step3", func(args []asyncg.Value) asyncg.Value {
				return migrations.InsertP(loc.Here(), mongosim.Document{"step": 3})
			}), nil)
			ctx.Catch(chain, asyncg.F("onMigrationError", func(args []asyncg.Value) asyncg.Value {
				return asyncg.Undefined
			}))
		},
	}
}

// caseSO31978347: code calls an asynchronous API and reads the "result"
// variable immediately afterwards — expecting the callback to have run
// synchronously. This is a §VI-B manual pattern: the Async Graph shows
// the registration in the main tick and the execution ticks later; the
// Manual query packages that inspection.
func caseSO31978347() Case {
	// Manual finds the registration by its callback's name (see explainRegistration).
	return Case{
		ID:        "SO-31978347",
		Title:     "reads state before the async callback populated it",
		Category:  "Expect Sync Callback",
		Expect:    []detect.Category{detect.CatExpectSyncCallback},
		TickLimit: 2000,
		Buggy: func(ctx *asyncg.Context) {
			users := ctx.DB().C("users")
			users.InsertSync(mongosim.Document{"name": "fred"})
			var result asyncg.Value = asyncg.Undefined
			at := loc.Here()
			users.FindOne(at, `name == "fred"`, asyncg.F("assignResult",
				func(args []asyncg.Value) asyncg.Value {
					result = args[1]
					return asyncg.Undefined
				}))
			// BUG: result is still undefined here.
			_ = asyncg.Undefined == result
		},
		Manual: func(r *asyncg.Report) []asyncgraph.Warning {
			exp := explainRegistration(r.Graph, "assignResult")
			if exp != nil && exp.Asynchronous() {
				return []asyncgraph.Warning{exp.Warning()}
			}
			return nil
		},
		Fixed: func(ctx *asyncg.Context) {
			users := ctx.DB().C("users")
			users.InsertSync(mongosim.Document{"name": "fred"})
			users.FindOne(loc.Here(), `name == "fred"`, asyncg.F("useResult",
				func(args []asyncg.Value) asyncg.Value {
					// All use of the result happens inside the callback.
					_ = args[1]
					return asyncg.Undefined
				}))
		},
	}
}

// caseFanoutJoin: two database reads on distinct collections fan out in
// the same tick and are joined with Promise.all, but the join has no
// rejection handler — a failing read would vanish. The reads touch
// disjoint state, so their completion order is a prime partial-order-
// reduction target: every interleaving yields the same graph, and the
// exhaustive strategy with POR enabled proves it by pruning the
// io-order siblings instead of executing them.
func caseFanoutJoin() Case {
	return Case{
		ID:        "fanout-join",
		Title:     "parallel DB reads joined without rejection handler",
		Category:  "Missing Exceptional Reaction",
		Expect:    []detect.Category{detect.CatMissingRejectHandler},
		TickLimit: 2000,
		Buggy: func(ctx *asyncg.Context) {
			users := ctx.DB().C("users")
			users.InsertSync(mongosim.Document{"name": "fred"})
			orders := ctx.DB().C("orders")
			orders.InsertSync(mongosim.Document{"owner": "fred", "total": 42})
			joined := ctx.All(
				users.FindOneP(loc.Here(), `name == "fred"`),
				orders.FindOneP(loc.Here(), `owner == "fred"`),
			)
			ctx.Then(joined, asyncg.F("render", func(args []asyncg.Value) asyncg.Value {
				return asyncg.Undefined
			}), nil)
			// BUG: no .catch — a failing read rejects the join silently.
		},
		Fixed: func(ctx *asyncg.Context) {
			users := ctx.DB().C("users")
			users.InsertSync(mongosim.Document{"name": "fred"})
			orders := ctx.DB().C("orders")
			orders.InsertSync(mongosim.Document{"owner": "fred", "total": 42})
			joined := ctx.All(
				users.FindOneP(loc.Here(), `name == "fred"`),
				orders.FindOneP(loc.Here(), `owner == "fred"`),
			)
			rendered := ctx.Then(joined, asyncg.F("render", func(args []asyncg.Value) asyncg.Value {
				return asyncg.Undefined
			}), nil)
			ctx.Catch(rendered, asyncg.F("onErr", func(args []asyncg.Value) asyncg.Value {
				return asyncg.Undefined
			}))
		},
	}
}

// caseFig4 is the paper's Example 2 (Fig. 4 / Fig. 5): a promise
// reaction registers the listener one tick after the event was emitted
// (dead emit + dead listener), and the then-chain lacks an exception
// handler. The fix defers the emission with setImmediate and appends the
// catch.
func caseFig4() Case {
	return Case{
		ID:       "fig4",
		Title:    "Example 2: promises and emitters combined (Fig. 4)",
		Category: "Dead Emits + Missing Exceptional Reaction",
		Expect: []detect.Category{
			detect.CatDeadEmit,
			detect.CatDeadListener,
			detect.CatMissingRejectHandler,
		},
		Buggy: func(ctx *asyncg.Context) {
			ee := ctx.NewEmitter("ee")
			p := ctx.NewPromise(asyncg.F("executor", func(args []asyncg.Value) asyncg.Value {
				args[0].(*asyncg.Promise).Resolve(loc.Here(), 0)
				return asyncg.Undefined
			}))
			ctx.Then(p, asyncg.F("reaction", func(args []asyncg.Value) asyncg.Value {
				ctx.On(ee, "foo", asyncg.F("fooListener", func(args []asyncg.Value) asyncg.Value {
					return asyncg.Undefined
				}))
				return asyncg.Undefined
			}), nil) // BUG: missing exception handler
			ctx.Emit(ee, "foo") // BUG: dead emit — the listener comes later
		},
		Fixed: func(ctx *asyncg.Context) {
			ee := ctx.NewEmitter("ee")
			p := ctx.NewPromise(asyncg.F("executor", func(args []asyncg.Value) asyncg.Value {
				args[0].(*asyncg.Promise).Resolve(loc.Here(), 0)
				return asyncg.Undefined
			}))
			reaction := ctx.Then(p, asyncg.F("reaction", func(args []asyncg.Value) asyncg.Value {
				ctx.On(ee, "foo", asyncg.F("fooListener", func(args []asyncg.Value) asyncg.Value {
					return asyncg.Undefined
				}))
				return asyncg.Undefined
			}), nil)
			ctx.Catch(reaction, asyncg.F("onErr", func(args []asyncg.Value) asyncg.Value {
				return asyncg.Undefined
			}))
			ctx.SetImmediate(asyncg.F("deferredEmit", func(args []asyncg.Value) asyncg.Value {
				ctx.Emit(ee, "foo")
				return asyncg.Undefined
			}))
		},
	}
}

// explainRegistration explains the delay of the callback registered
// under the name fn. A case finds its registration in the report's graph
// rather than keeping the location it registered at: the Case's programs
// run on several runners at once, so a location one of them wrote would
// be a data race.
func explainRegistration(g *asyncgraph.Graph, fn string) *detect.SyncExpectation {
	for _, n := range g.Nodes {
		if n.Kind == asyncgraph.CR && n.Func == fn {
			return detect.ExplainCallbackDelay(g, n.Loc)
		}
	}
	return nil
}
