package asyncg_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"asyncg"
	"asyncg/internal/eventloop"
	"asyncg/internal/trace"
)

// countdown schedules a small deterministic program.
func countdown(ctx *asyncg.Context) {
	ctx.SetTimeout(asyncg.F("tock", func(args []asyncg.Value) asyncg.Value {
		return asyncg.Undefined
	}), 2*time.Millisecond)
	ctx.NextTick(asyncg.F("tick", func(args []asyncg.Value) asyncg.Value {
		ctx.Work(time.Millisecond)
		return asyncg.Undefined
	}))
}

func TestWithLoopConfiguresTickLimit(t *testing.T) {
	report, err := asyncg.New(asyncg.WithLoop(eventloop.Options{TickLimit: 50})).Run(countdown)
	if err != nil {
		t.Fatal(err)
	}
	if report.Graph == nil {
		t.Fatal("session lost the graph")
	}
	if report.Ticks == 0 {
		t.Fatal("no ticks ran")
	}
}

func TestWithTraceStreamsNDJSON(t *testing.T) {
	var buf bytes.Buffer
	report, err := asyncg.New(asyncg.WithTrace(&buf, asyncg.TraceNDJSON)).Run(countdown)
	if err != nil {
		t.Fatal(err)
	}
	if report.Graph == nil {
		t.Fatal("tracing must not disable the tool")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 5 {
		t.Fatalf("trace has only %d lines:\n%s", len(lines), buf.String())
	}
	var last trace.Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Kind != trace.KindSummary || last.Events != len(lines)-1 {
		t.Fatalf("bad summary line: %+v over %d lines", last, len(lines))
	}
}

func TestWithTraceChromeValidates(t *testing.T) {
	var buf bytes.Buffer
	if _, err := asyncg.New(asyncg.WithTrace(&buf, asyncg.TraceChrome)).Run(countdown); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	for i, ev := range arr {
		for _, field := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("chrome event %d lacks %q: %v", i, field, ev)
			}
		}
	}
}

func TestWithMetricsPopulatesReport(t *testing.T) {
	report, err := asyncg.New(asyncg.WithMetrics()).Run(countdown)
	if err != nil {
		t.Fatal(err)
	}
	m := report.Metrics
	if m == nil {
		t.Fatal("Report.Metrics is nil despite WithMetrics")
	}
	if m.PerAPI["setTimeout"].Count != 1 || m.PerAPI["process.nextTick"].Count != 1 {
		t.Fatalf("per-API counts: %v", m.APIExecutions())
	}
	if m.Ticks != int64(report.Ticks) {
		t.Fatalf("metrics saw %d ticks, loop ran %d", m.Ticks, report.Ticks)
	}
	if m.TimerLag.Count != 1 {
		t.Fatalf("timer lag count = %d", m.TimerLag.Count)
	}
}

func TestWithoutMetricsReportHasNone(t *testing.T) {
	report, err := asyncg.New().Run(countdown)
	if err != nil {
		t.Fatal(err)
	}
	if report.Metrics != nil {
		t.Fatal("Report.Metrics set without WithMetrics")
	}
}

func TestDisabledKeepsTraceAttached(t *testing.T) {
	var buf bytes.Buffer
	session := asyncg.New(asyncg.Disabled(), asyncg.WithTrace(&buf, asyncg.TraceNDJSON), asyncg.WithMetrics())
	report, err := session.Run(countdown)
	if err != nil {
		t.Fatal(err)
	}
	if report.Graph != nil {
		t.Fatal("Disabled still built a graph")
	}
	if buf.Len() == 0 {
		t.Fatal("Disabled suppressed the trace")
	}
	if report.Metrics == nil || report.Metrics.Ticks == 0 {
		t.Fatal("Disabled suppressed metrics")
	}
}
