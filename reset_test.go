package asyncg_test

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"asyncg"
	"asyncg/internal/loc"
	"asyncg/internal/mongosim"
)

// workload exercises every substrate that participates in Session.Reset:
// timers, microtasks, promises, async/await, emitters, HTTP over the
// simulated network, the database, and the file system.
func resetWorkload(ctx *asyncg.Context) {
	// Timers + microtasks.
	ctx.SetTimeout(asyncg.F("later", func([]asyncg.Value) asyncg.Value {
		ctx.NextTick(asyncg.F("tick", func([]asyncg.Value) asyncg.Value {
			return asyncg.Undefined
		}))
		return asyncg.Undefined
	}), 3*time.Millisecond)

	// Promises + async/await.
	p := ctx.Resolve("seed")
	ctx.Async("worker", func(aw *asyncg.Awaiter) asyncg.Value {
		return ctx.Await(aw, p)
	})

	// Emitters.
	em := ctx.NewEmitter("bus")
	ctx.On(em, "ping", asyncg.F("onPing", func([]asyncg.Value) asyncg.Value {
		return asyncg.Undefined
	}))
	ctx.SetImmediate(asyncg.F("fire", func([]asyncg.Value) asyncg.Value {
		ctx.Emit(em, "ping", 1)
		return asyncg.Undefined
	}))

	// HTTP server + client over the simulated network.
	srv := ctx.CreateServer(asyncg.F("handler", func(args []asyncg.Value) asyncg.Value {
		res := args[1].(*asyncg.ServerResponse)
		res.EndString(loc.Here(), "pong")
		return asyncg.Undefined
	}))
	if err := ctx.ListenHTTP(srv, 8080); err != nil {
		panic(err)
	}
	ctx.HTTPGet(8080, "/ping", asyncg.F("onResponse", func([]asyncg.Value) asyncg.Value {
		return asyncg.Undefined
	}))

	// Database.
	users := ctx.DB().C("users")
	users.Insert(loc.Here(), mongosim.Document{"name": "ada"}, asyncg.F("inserted", func([]asyncg.Value) asyncg.Value {
		users.FindOne(loc.Here(), "name=ada",
			asyncg.F("found", func([]asyncg.Value) asyncg.Value { return asyncg.Undefined }))
		return asyncg.Undefined
	}))

	// File system.
	fs := ctx.FS()
	fs.WriteFile(loc.Here(), "/tmp/x", []byte("data"), asyncg.F("wrote", func([]asyncg.Value) asyncg.Value {
		fs.ReadFile(loc.Here(), "/tmp/x", asyncg.F("read", func([]asyncg.Value) asyncg.Value {
			return asyncg.Undefined
		}))
		return asyncg.Undefined
	}))
}

// renderReport serializes everything observable about a report so runs
// can be compared byte for byte.
func renderReport(r *asyncg.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ticks=%d\n", r.Ticks)
	fmt.Fprintf(&b, "fingerprint=%s\n", r.Graph.Fingerprint())
	b.WriteString(r.Graph.DOT("run"))
	for _, w := range r.Warnings {
		b.WriteString(w.String())
		b.WriteByte('\n')
	}
	for _, a := range r.Anomalies {
		b.WriteString(a)
		b.WriteByte('\n')
	}
	for _, u := range r.Uncaught {
		fmt.Fprintf(&b, "uncaught=%v\n", u)
	}
	return b.String()
}

// TestSessionResetByteIdentical is the core Reset contract: a reset
// session re-running the same deterministic program must produce a
// report byte-identical to both its own first run and a fresh session's.
func TestSessionResetByteIdentical(t *testing.T) {
	fresh, err := asyncg.New().Run(resetWorkload)
	if err != nil {
		t.Fatal(err)
	}
	want := renderReport(fresh)

	session := asyncg.New()
	for i := 0; i < 3; i++ {
		report, err := session.Run(resetWorkload)
		if err != nil {
			t.Fatalf("reused run %d: %v", i, err)
		}
		if got := renderReport(report); got != want {
			t.Fatalf("reused run %d diverged from fresh run:\n--- fresh ---\n%s\n--- reused ---\n%s", i, want, got)
		}
		session.Reset()
	}
}

// TestSessionResetWithMetricsAndTrace checks the probe consumers rewind
// too: snapshots and retained trace events match across Reset.
func TestSessionResetWithMetricsAndTrace(t *testing.T) {
	session := asyncg.New(asyncg.WithMetrics(), asyncg.WithTrace(io.Discard, asyncg.TraceNDJSON))
	first, err := session.Run(resetWorkload)
	if err != nil {
		t.Fatal(err)
	}
	firstMetrics := fmt.Sprintf("%+v", *first.Metrics)
	firstEvents := len(session.Exporter().Events())

	session.Reset()
	if got := len(session.Exporter().Events()); got != 0 {
		t.Fatalf("exporter retained %d events across Reset", got)
	}
	second, err := session.Run(resetWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%+v", *second.Metrics); got != firstMetrics {
		t.Fatalf("metrics diverged after Reset:\nfirst:  %s\nsecond: %s", firstMetrics, got)
	}
	if got := len(session.Exporter().Events()); got != firstEvents {
		t.Fatalf("trace event count diverged: %d vs %d", got, firstEvents)
	}
}

// TestSessionResetSteadyStateAllocs pins the point of the redesign:
// once warm, a Reset+Run cycle must allocate an order of magnitude less
// than a fresh session per run.
func TestSessionResetSteadyStateAllocs(t *testing.T) {
	session := asyncg.New()
	// Warm the pools.
	for i := 0; i < 3; i++ {
		if _, err := session.Run(resetWorkload); err != nil {
			t.Fatal(err)
		}
		session.Reset()
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := session.Run(resetWorkload); err != nil {
			t.Fatal(err)
		}
		session.Reset()
	})
	// A fresh session costs thousands of allocations for this workload;
	// the warm path must stay well under that. The bound is deliberately
	// loose to absorb map-rehash noise; internal/explore's
	// TestAllocBudget gates exploration allocations per schedule.
	if avg > 600 {
		t.Fatalf("steady-state Reset+Run costs %.0f allocs/run, want <= 600", avg)
	}
}
