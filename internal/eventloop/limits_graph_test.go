package eventloop_test

// External-package tests for the loop's limit path with an Async Graph
// builder attached: when a run is cut short by the tick limit, the
// partial graph built so far stays observable — the tool's answer to
// "what was the loop doing when we killed it".

import (
	"errors"
	"testing"

	"asyncg/internal/asyncgraph"
	"asyncg/internal/eventloop"
	"asyncg/internal/loc"
	"asyncg/internal/vm"
)

// buildRun executes program on a fresh loop with a graph builder
// attached and returns the run error and the partial graph.
func buildRun(t *testing.T, opts eventloop.Options, program func(l *eventloop.Loop)) (error, *asyncgraph.Graph) {
	t.Helper()
	l := eventloop.New(opts)
	b := asyncgraph.NewBuilder(asyncgraph.DefaultConfig())
	l.Probes().Attach(b)
	main := vm.NewFunc("main", func([]vm.Value) vm.Value {
		program(l)
		return vm.Undefined
	})
	err := l.Run(main)
	l.Probes().Detach(b)
	return err, b.Graph()
}

func countKind(g *asyncgraph.Graph, k asyncgraph.NodeKind) int {
	n := 0
	for _, node := range g.Nodes {
		if node.Kind == k {
			n++
		}
	}
	return n
}

func TestTickLimitLeavesPendingMicrotasksAndPartialGraph(t *testing.T) {
	// A self-rescheduling nextTick chain hits the tick limit with work
	// still queued: more callback registrations (CR) than executions
	// (CE) in the partial graph.
	var reschedule *vm.Function
	var l0 *eventloop.Loop
	reschedule = vm.NewFunc("spin", func([]vm.Value) vm.Value {
		l0.NextTick(loc.Here(), reschedule)
		return vm.Undefined
	})
	err, g := buildRun(t, eventloop.Options{TickLimit: 10}, func(l *eventloop.Loop) {
		l0 = l
		l.NextTick(loc.Here(), reschedule)
	})
	if !errors.Is(err, eventloop.ErrTickLimit) {
		t.Fatalf("err = %v, want ErrTickLimit", err)
	}
	cr, ce := countKind(g, asyncgraph.CR), countKind(g, asyncgraph.CE)
	if ce == 0 {
		t.Fatal("no callback executions recorded before the limit")
	}
	if cr <= ce {
		t.Fatalf("expected pending registrations: CR=%d CE=%d", cr, ce)
	}
	if len(g.Ticks) == 0 {
		t.Fatal("no ticks committed to the partial graph")
	}
}
