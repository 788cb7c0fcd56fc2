package asyncgraph

import (
	"strings"
	"testing"
	"time"

	"asyncg/internal/eventloop"
	"asyncg/internal/events"
	"asyncg/internal/loc"
	"asyncg/internal/promise"
	"asyncg/internal/vm"
)

// build runs program with a builder attached and returns the builder.
func build(t *testing.T, cfg Config, program func(l *eventloop.Loop)) *Builder {
	t.Helper()
	b, err := buildErr(t, cfg, program)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func buildErr(t *testing.T, cfg Config, program func(l *eventloop.Loop)) (*Builder, error) {
	t.Helper()
	l := eventloop.New(eventloop.Options{TickLimit: 10_000})
	b := NewBuilder(cfg)
	l.Probes().Attach(b)
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		program(l)
		return vm.Undefined
	})
	err := l.Run(main)
	if got := b.Anomalies(); len(got) != 0 {
		t.Fatalf("validator anomalies: %v", got)
	}
	return b, err
}

func tickPhases(g *Graph) []string {
	out := make([]string, len(g.Ticks))
	for i, tk := range g.Ticks {
		out[i] = tk.Phase
	}
	return out
}

func TestMainTickIsFirst(t *testing.T) {
	b := build(t, DefaultConfig(), func(l *eventloop.Loop) {
		l.NextTick(loc.Here(), vm.NewFunc("cb", func([]vm.Value) vm.Value { return vm.Undefined }))
	})
	g := b.Graph()
	if len(g.Ticks) != 2 {
		t.Fatalf("ticks = %v", tickPhases(g))
	}
	if g.Ticks[0].Phase != "main" || g.Ticks[0].Index != 1 {
		t.Fatalf("first tick = %+v", g.Ticks[0])
	}
	if g.Ticks[1].Phase != "nextTick" {
		t.Fatalf("second tick = %+v", g.Ticks[1])
	}
}

func TestCRAndCENodesWithBindingEdge(t *testing.T) {
	b := build(t, DefaultConfig(), func(l *eventloop.Loop) {
		l.NextTick(loc.Here(), vm.NewFunc("cb", func([]vm.Value) vm.Value { return vm.Undefined }))
	})
	g := b.Graph()
	crs := g.NodesOfKind(CR)
	ces := g.NodesOfKind(CE)
	if len(crs) != 1 || len(ces) != 1 {
		t.Fatalf("CR=%d CE=%d", len(crs), len(ces))
	}
	cr, ce := crs[0], ces[0]
	if cr.Tick != 1 || ce.Tick != 2 {
		t.Fatalf("cr.Tick=%d ce.Tick=%d", cr.Tick, ce.Tick)
	}
	if cr.Executions != 1 {
		t.Fatalf("cr.Executions = %d", cr.Executions)
	}
	var binding, direct bool
	for _, e := range g.Edges {
		if e.Kind == EdgeBinding && e.From == ce.ID && e.To == cr.ID {
			binding = true
		}
		if e.Kind == EdgeDirect && e.From == cr.ID && e.To == ce.ID {
			direct = true
		}
	}
	if !binding || !direct {
		t.Fatalf("binding=%v direct=%v edges=%v", binding, direct, g.Edges)
	}
}

func TestEmptyTicksAreDropped(t *testing.T) {
	// A timer whose callback does nothing trackable still makes a CE
	// node (it was registered), but a loop iteration with no executed
	// callbacks must not commit ticks.
	b := build(t, DefaultConfig(), func(l *eventloop.Loop) {
		l.SetTimeout(loc.Here(), vm.NewFunc("t", func([]vm.Value) vm.Value { return vm.Undefined }), 10*time.Millisecond)
	})
	g := b.Graph()
	if len(g.Ticks) != 2 { // main + timer
		t.Fatalf("ticks = %v", tickPhases(g))
	}
}

func TestMicrotaskTicksArePerCallback(t *testing.T) {
	// Two nextTick callbacks produce two separate nextTick ticks, as in
	// Fig. 3(a) where each micro-task execution is its own tick.
	b := build(t, DefaultConfig(), func(l *eventloop.Loop) {
		l.NextTick(loc.Here(), vm.NewFunc("a", func([]vm.Value) vm.Value { return vm.Undefined }))
		l.NextTick(loc.Here(), vm.NewFunc("b", func([]vm.Value) vm.Value { return vm.Undefined }))
	})
	got := tickPhases(b.Graph())
	want := []string{"main", "nextTick", "nextTick"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("ticks = %v", got)
	}
}

func TestNestedRegistrationGetsHappensInEdge(t *testing.T) {
	b := build(t, DefaultConfig(), func(l *eventloop.Loop) {
		l.NextTick(loc.Here(), vm.NewFunc("outer", func([]vm.Value) vm.Value {
			l.SetImmediate(loc.Here(), vm.NewFunc("inner", func([]vm.Value) vm.Value { return vm.Undefined }))
			return vm.Undefined
		}))
	})
	g := b.Graph()
	var outerCE, innerCR *Node
	for _, n := range g.Nodes {
		if n.Kind == CE && n.Func == "outer" {
			outerCE = n
		}
		if n.Kind == CR && n.API == "setImmediate" {
			innerCR = n
		}
	}
	if outerCE == nil || innerCR == nil {
		t.Fatal("missing nodes")
	}
	if innerCR.Tick != outerCE.Tick {
		t.Fatalf("inner CR tick %d, outer CE tick %d (must share)", innerCR.Tick, outerCE.Tick)
	}
	found := false
	for _, e := range g.EdgesFrom(outerCE.ID) {
		if e.To == innerCR.ID && e.Kind == EdgeDirect {
			found = true
		}
	}
	if !found {
		t.Fatal("missing happens-in edge from outer CE to inner CR")
	}
}

func TestEmitterGraph(t *testing.T) {
	b := build(t, DefaultConfig(), func(l *eventloop.Loop) {
		e := events.New(l, "e", loc.Here())
		e.On(loc.Here(), "x", vm.NewFunc("listener", func([]vm.Value) vm.Value { return vm.Undefined }))
		e.Emit(loc.Here(), "x", 1)
	})
	g := b.Graph()
	obs := g.NodesOfKind(OB)
	cts := g.NodesOfKind(CT)
	ces := g.NodesOfKind(CE)
	if len(obs) != 1 || len(cts) != 1 || len(ces) != 1 {
		t.Fatalf("OB=%d CT=%d CE=%d", len(obs), len(cts), len(ces))
	}
	if !strings.HasPrefix(obs[0].Label, "E1") {
		t.Fatalf("emitter label = %q", obs[0].Label)
	}
	// ★→○ causal edge from the emit to the listener execution.
	found := false
	for _, e := range g.EdgesFrom(cts[0].ID) {
		if e.To == ces[0].ID && e.Kind == EdgeDirect {
			found = true
		}
	}
	if !found {
		t.Fatal("missing CT→CE edge for emitter dispatch")
	}
	// Listener CR relates to the emitter OB with the event name.
	crs := g.NodesOfKind(CR)
	related := false
	for _, e := range g.EdgesFrom(crs[0].ID) {
		if e.To == obs[0].ID && e.Kind == EdgeRelation && e.Label == "x" {
			related = true
		}
	}
	if !related {
		t.Fatal("missing CR⇠event⇠OB relation edge")
	}
}

func TestEmitterListenerSharesTickWithEmit(t *testing.T) {
	// Listeners run synchronously under the emitting tick.
	b := build(t, DefaultConfig(), func(l *eventloop.Loop) {
		e := events.New(l, "e", loc.Here())
		e.On(loc.Here(), "x", vm.NewFunc("listener", func([]vm.Value) vm.Value { return vm.Undefined }))
		l.SetTimeout(loc.Here(), vm.NewFunc("timercb", func([]vm.Value) vm.Value {
			e.Emit(loc.Here(), "x")
			return vm.Undefined
		}), time.Millisecond)
	})
	g := b.Graph()
	var emitCT, listenerCE *Node
	for _, n := range g.Nodes {
		if n.Kind == CT {
			emitCT = n
		}
		if n.Kind == CE && n.Func == "listener" {
			listenerCE = n
		}
	}
	if emitCT == nil || listenerCE == nil {
		t.Fatal("missing nodes")
	}
	if emitCT.Tick != listenerCE.Tick {
		t.Fatalf("emit tick %d != listener tick %d", emitCT.Tick, listenerCE.Tick)
	}
	if g.Ticks[emitCT.Tick-1].Phase != "timer" {
		t.Fatalf("phase = %s, want timer", g.Ticks[emitCT.Tick-1].Phase)
	}
}

func TestPromiseChainRelationEdges(t *testing.T) {
	b := build(t, DefaultConfig(), func(l *eventloop.Loop) {
		p := promise.Resolved(l, loc.Here(), 1)
		p.Then(loc.Here(), vm.NewFunc("h", func(args []vm.Value) vm.Value { return 2 }), nil).
			Catch(loc.Here(), vm.NewFunc("c", func(args []vm.Value) vm.Value { return vm.Undefined }))
	})
	g := b.Graph()
	obs := g.NodesOfKind(OB)
	if len(obs) != 3 { // p, then-derived, catch-derived
		t.Fatalf("OB count = %d", len(obs))
	}
	var thenEdge, catchEdge bool
	for _, e := range g.Edges {
		if e.Kind == EdgeRelation && e.Label == "then" && e.From == obs[0].ID && e.To == obs[1].ID {
			thenEdge = true
		}
		if e.Kind == EdgeRelation && e.Label == "catch" && e.From == obs[1].ID && e.To == obs[2].ID {
			catchEdge = true
		}
	}
	if !thenEdge || !catchEdge {
		t.Fatalf("then=%v catch=%v", thenEdge, catchEdge)
	}
}

func TestPromiseReactionRunsInPromiseTick(t *testing.T) {
	b := build(t, DefaultConfig(), func(l *eventloop.Loop) {
		promise.Resolved(l, loc.Here(), 1).Then(loc.Here(),
			vm.NewFunc("h", func(args []vm.Value) vm.Value { return vm.Undefined }), nil)
	})
	g := b.Graph()
	ces := g.NodesOfKind(CE)
	if len(ces) != 1 {
		t.Fatalf("CE = %d", len(ces))
	}
	if tk := g.TickOf(ces[0].ID); tk == nil || tk.Phase != "promise" {
		t.Fatalf("reaction tick = %+v", tk)
	}
}

func TestResolveProducesTriggerNodeLinkedToCE(t *testing.T) {
	b := build(t, DefaultConfig(), func(l *eventloop.Loop) {
		p := promise.New(l, loc.Here(), vm.NewFunc("exec", func(args []vm.Value) vm.Value {
			args[0].(*promise.Promise).Resolve(loc.Here(), 0)
			return vm.Undefined
		}))
		p.Then(loc.Here(), vm.NewFunc("h", func(args []vm.Value) vm.Value { return vm.Undefined }), nil)
	})
	g := b.Graph()
	var resolveCT, reactionCE *Node
	for _, n := range g.Nodes {
		if n.Kind == CT && n.API == promise.APIResolve {
			resolveCT = n
		}
		if n.Kind == CE && n.Func == "h" {
			reactionCE = n
		}
	}
	if resolveCT == nil || reactionCE == nil {
		t.Fatal("missing trigger or reaction node")
	}
	found := false
	for _, e := range g.EdgesFrom(resolveCT.ID) {
		if e.To == reactionCE.ID && e.Kind == EdgeDirect {
			found = true
		}
	}
	if !found {
		t.Fatal("missing ★→○ edge from resolve to reaction")
	}
	// The executor runs synchronously in the main tick, so the resolve
	// trigger must be in tick 1.
	if resolveCT.Tick != 1 {
		t.Fatalf("resolve tick = %d", resolveCT.Tick)
	}
}

func TestIntervalCRHasMultipleExecutions(t *testing.T) {
	b := build(t, DefaultConfig(), func(l *eventloop.Loop) {
		count := 0
		var id uint64
		id = l.SetInterval(loc.Here(), vm.NewFunc("tick", func([]vm.Value) vm.Value {
			count++
			if count == 3 {
				l.ClearInterval(loc.Here(), id)
			}
			return vm.Undefined
		}), time.Millisecond)
	})
	g := b.Graph()
	crs := g.NodesOfKind(CR)
	if len(crs) != 1 || crs[0].Executions != 3 {
		t.Fatalf("crs = %+v", crs)
	}
	if len(g.NodesOfKind(CE)) != 3 {
		t.Fatalf("CE count = %d", len(g.NodesOfKind(CE)))
	}
}

func TestClearTimeoutRetiresRegistration(t *testing.T) {
	b := build(t, DefaultConfig(), func(l *eventloop.Loop) {
		id := l.SetTimeout(loc.Here(), vm.NewFunc("t", func([]vm.Value) vm.Value { return vm.Undefined }), time.Millisecond)
		l.ClearTimeout(loc.Here(), id)
	})
	g := b.Graph()
	crs := g.NodesOfKind(CR)
	if len(crs) != 1 || !crs[0].Removed || crs[0].Executions != 0 {
		t.Fatalf("crs = %+v", crs[0])
	}
}

func TestNoPromiseConfigSkipsPromiseNodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Promises = false
	b := build(t, cfg, func(l *eventloop.Loop) {
		promise.Resolved(l, loc.Here(), 1).Then(loc.Here(),
			vm.NewFunc("h", func(args []vm.Value) vm.Value { return vm.Undefined }), nil)
		l.NextTick(loc.Here(), vm.NewFunc("t", func([]vm.Value) vm.Value { return vm.Undefined }))
	})
	g := b.Graph()
	for _, n := range g.Nodes {
		if strings.HasPrefix(n.API, "promise.") {
			t.Fatalf("promise node tracked despite Promises=false: %+v", n)
		}
	}
	// nextTick still tracked.
	if len(g.NodesOfKind(CE)) != 1 {
		t.Fatalf("CE = %d, want 1 (the nextTick)", len(g.NodesOfKind(CE)))
	}
}

// TestPromiseTriggerRendersValue: a promise resolved at a user location
// gets a CT node whose ValueStr is the rendered settlement value; with
// Promises off the same program builds no promise CT node.
func TestPromiseTriggerRendersValue(t *testing.T) {
	program := func(l *eventloop.Loop) { promise.Resolved(l, loc.Here(), 42) }
	cts := build(t, DefaultConfig(), program).Graph().NodesOfKind(CT)
	if len(cts) != 1 {
		t.Fatalf("CT nodes = %d, want 1 (the resolve)", len(cts))
	}
	if cts[0].API != promise.APIResolve || cts[0].ValueStr != "42" {
		t.Fatalf("CT node API %q ValueStr %q, want %q and \"42\"", cts[0].API, cts[0].ValueStr, promise.APIResolve)
	}
	cfg := DefaultConfig()
	cfg.Promises = false
	if cts := build(t, cfg, program).Graph().NodesOfKind(CT); len(cts) != 0 {
		t.Fatalf("Promises=false built %d CT node(s), first %q", len(cts), cts[0].API)
	}
}

func TestTickLimitTruncationKeepsGraph(t *testing.T) {
	l := eventloop.New(eventloop.Options{TickLimit: 10})
	b := NewBuilder(DefaultConfig())
	l.Probes().Attach(b)
	var compute *vm.Function
	compute = vm.NewFunc("compute", func([]vm.Value) vm.Value {
		l.NextTick(loc.Here(), compute)
		return vm.Undefined
	})
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		l.NextTick(loc.Here(), compute)
		return vm.Undefined
	})
	if err := l.Run(main); err != eventloop.ErrTickLimit {
		t.Fatalf("err = %v", err)
	}
	g := b.Graph()
	if len(g.Ticks) < 5 {
		t.Fatalf("graph truncated too hard: %d ticks", len(g.Ticks))
	}
	for _, tk := range g.Ticks[1:] {
		if tk.Phase != "nextTick" {
			t.Fatalf("unexpected phase %s", tk.Phase)
		}
	}
}

func TestAttachDetachMidRun(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	b := NewBuilder(DefaultConfig())
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		l.NextTick(loc.Here(), vm.NewFunc("first", func([]vm.Value) vm.Value {
			l.Probes().Attach(b)
			l.NextTick(loc.Here(), vm.NewFunc("second", func([]vm.Value) vm.Value {
				l.Probes().Detach(b)
				l.NextTick(loc.Here(), vm.NewFunc("third", func([]vm.Value) vm.Value { return vm.Undefined }))
				return vm.Undefined
			}))
			return vm.Undefined
		}))
		return vm.Undefined
	})
	if err := l.Run(main); err != nil {
		t.Fatal(err)
	}
	g := b.Graph()
	// Only the 'second' registration+execution window was observed.
	if len(g.NodesOfKind(CR)) != 1 {
		t.Fatalf("CR = %d", len(g.NodesOfKind(CR)))
	}
	for _, n := range g.Nodes {
		if n.Func == "third" && n.Kind == CE {
			t.Fatal("saw execution after detach")
		}
	}
}

func TestDOTOutputIsWellFormed(t *testing.T) {
	b := build(t, DefaultConfig(), func(l *eventloop.Loop) {
		e := events.New(l, "server", loc.Here())
		e.On(loc.Here(), "request", vm.NewFunc("accept", func([]vm.Value) vm.Value { return vm.Undefined }))
		e.Emit(loc.Here(), "request")
		promise.Resolved(l, loc.Here(), 1).Then(loc.Here(),
			vm.NewFunc("h", func(args []vm.Value) vm.Value { return vm.Undefined }), nil)
	})
	dot := b.Graph().DOT("test")
	for _, want := range []string{
		"digraph AsyncGraph", "cluster_t1", "t1:main",
		"shape=box", "shape=ellipse", "shape=star", "shape=triangle",
		"style=dashed",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	if strings.Count(dot, "{") != strings.Count(dot, "}") {
		t.Error("unbalanced braces in DOT output")
	}
}

func TestJSONRoundTripsNodeCount(t *testing.T) {
	b := build(t, DefaultConfig(), func(l *eventloop.Loop) {
		l.NextTick(loc.Here(), vm.NewFunc("cb", func([]vm.Value) vm.Value { return vm.Undefined }))
	})
	var sb strings.Builder
	if err := b.Graph().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"kind": "CR"`) || !strings.Contains(out, `"kind": "CE"`) {
		t.Fatalf("JSON missing node kinds:\n%s", out)
	}
	if !strings.Contains(out, `"phase": "nextTick"`) {
		t.Fatalf("JSON missing tick phase:\n%s", out)
	}
}

func TestAsyncAwaitGraph(t *testing.T) {
	b := build(t, DefaultConfig(), func(l *eventloop.Loop) {
		data := promise.Resolved(l, loc.Here(), 42)
		promise.Go(l, loc.Here(), "fetch", func(aw *promise.Awaiter) vm.Value {
			return aw.Await(loc.Here(), data)
		})
	})
	g := b.Graph()
	var awaitCR *Node
	for _, n := range g.Nodes {
		if n.Kind == CR && n.API == promise.APIAwait {
			awaitCR = n
		}
	}
	if awaitCR == nil {
		t.Fatal("no await CR node")
	}
	if awaitCR.Executions != 1 {
		t.Fatalf("await executions = %d", awaitCR.Executions)
	}
}
