package trace_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"asyncg/internal/eventloop"
	"asyncg/internal/events"
	"asyncg/internal/loc"
	"asyncg/internal/trace"
	"asyncg/internal/vm"
)

var update = flag.Bool("update", false, "rewrite the golden trace files")

// The exporter and metrics registry must attach through the unified
// probe surface. Each leaves out the extension whose events it does not
// use, since subscribing would make the loop build a payload per event
// for nothing: the exporter the loop-iteration extension, the metrics
// registry the phase extension.
var (
	_ eventloop.Probe      = (*trace.Exporter)(nil)
	_ eventloop.PhaseProbe = (*trace.Exporter)(nil)
	_ eventloop.TimerProbe = (*trace.Exporter)(nil)
	_ eventloop.Probe      = (*trace.Metrics)(nil)
	_ eventloop.LoopProbe  = (*trace.Metrics)(nil)
	_ eventloop.TimerProbe = (*trace.Metrics)(nil)
)

// gl fabricates a stable source location, so golden files do not depend
// on this file's line numbers.
func gl(line int) loc.Loc { return loc.Loc{File: "golden.js", Line: line} }

// runGoldenProgram executes a small deterministic program covering every
// event kind: nextTick (CR/CE), timers with work (CR/CE/timer-fire and a
// phase span), an interval cleared after two fires (API), a dead
// clearTimeout (API), an emitter (OB/CR/CT), and an immediate.
func runGoldenProgram(t *testing.T) *trace.Exporter {
	t.Helper()
	loop := eventloop.New(eventloop.Options{})
	exp := trace.NewExporter(loop)
	loop.Probes().Attach(exp)

	fires := 0
	var intervalID uint64
	main := vm.NewFuncAt("main", gl(1), func([]vm.Value) vm.Value {
		loop.NextTick(gl(2), vm.NewFuncAt("tick1", gl(2), func([]vm.Value) vm.Value {
			loop.Work(500 * time.Microsecond)
			return vm.Undefined
		}))
		em := events.New(loop, "chan", gl(3))
		em.On(gl(4), "msg", vm.NewFuncAt("onMsg", gl(4), func([]vm.Value) vm.Value {
			return vm.Undefined
		}))
		loop.SetTimeout(gl(5), vm.NewFuncAt("timer1", gl(5), func([]vm.Value) vm.Value {
			loop.Work(2 * time.Millisecond)
			em.Emit(gl(6), "msg", "hello")
			loop.SetImmediate(gl(7), vm.NewFuncAt("imm1", gl(7), func([]vm.Value) vm.Value {
				return vm.Undefined
			}))
			return vm.Undefined
		}), 5*time.Millisecond)
		intervalID = loop.SetInterval(gl(8), vm.NewFuncAt("beat", gl(8), func([]vm.Value) vm.Value {
			fires++
			if fires == 2 {
				loop.ClearInterval(gl(9), intervalID)
			}
			return vm.Undefined
		}), 3*time.Millisecond)
		loop.ClearTimeout(gl(10), 9999) // unknown id: bare API event
		return vm.Undefined
	})
	if err := loop.Run(main); err != nil {
		t.Fatal(err)
	}
	if fires != 2 {
		t.Fatalf("interval fired %d times", fires)
	}
	return exp
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/trace -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenNDJSON(t *testing.T) {
	exp := runGoldenProgram(t)
	var buf bytes.Buffer
	if err := exp.WriteTo(&buf, trace.FormatNDJSON); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden.ndjson", buf.Bytes())
}

func TestGoldenChrome(t *testing.T) {
	exp := runGoldenProgram(t)
	var buf bytes.Buffer
	if err := exp.WriteTo(&buf, trace.FormatChrome); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_chrome.json", buf.Bytes())
}

// TestChromeSchema validates the acceptance shape: the chrome output is
// a JSON array whose every element carries name, ph, ts, pid, and tid.
func TestChromeSchema(t *testing.T) {
	exp := runGoldenProgram(t)
	var buf bytes.Buffer
	if err := exp.WriteTo(&buf, trace.FormatChrome); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("chrome output is not a JSON array: %v", err)
	}
	if len(arr) == 0 {
		t.Fatal("empty trace")
	}
	phases := map[string]bool{}
	for i, ev := range arr {
		for _, field := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d lacks %q: %v", i, field, ev)
			}
		}
		phases[ev["ph"].(string)] = true
	}
	// Complete slices, instants, and phase spans all present.
	for _, ph := range []string{"X", "i", "B", "E"} {
		if !phases[ph] {
			t.Errorf("no %q events in chrome trace", ph)
		}
	}
}

// TestNDJSONStreamShape decodes every line and checks kind coverage and
// the closing summary.
func TestNDJSONStreamShape(t *testing.T) {
	exp := runGoldenProgram(t)
	var buf bytes.Buffer
	if err := exp.WriteTo(&buf, trace.FormatNDJSON); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	var (
		kinds = map[trace.Kind]int{}
		last  trace.Event
		n     int
	)
	for dec.More() {
		var ev trace.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		kinds[ev.Kind]++
		last = ev
		n++
	}
	for _, k := range []trace.Kind{
		trace.KindCR, trace.KindCE, trace.KindCT, trace.KindOB, trace.KindAPI,
		trace.KindPhaseEnter, trace.KindPhaseExit,
		trace.KindTimerFire, trace.KindSummary,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %s events (kinds: %v)", k, kinds)
		}
	}
	if last.Kind != trace.KindSummary {
		t.Fatalf("stream does not end with a summary: %+v", last)
	}
	if last.Events != n-1 || last.Dropped != 0 {
		t.Fatalf("summary accounting: events=%d dropped=%d, stream had %d", last.Events, last.Dropped, n-1)
	}
	// Three timers dispatched: one timeout and two interval fires.
	if kinds[trace.KindTimerFire] != 3 {
		t.Errorf("timer-fire events = %d, want 3", kinds[trace.KindTimerFire])
	}
}

// TestExporterRingCapsDroppedRuns overflows the exporter's ring with a
// real run and checks the exporter-level accounting: the last Capacity
// events are retained, and every earlier one is counted as dropped.
func TestExporterRingCapsDroppedRuns(t *testing.T) {
	loop := eventloop.New(eventloop.Options{})
	exp := trace.NewExporter(loop)
	loop.Probes().Attach(exp)
	// Each hop is one CR and one CE event.
	hops := 0
	var hop *vm.Function
	hop = vm.NewFuncAt("hop", gl(1), func([]vm.Value) vm.Value {
		if hops++; hops < trace.Capacity {
			loop.NextTick(gl(1), hop)
		}
		return vm.Undefined
	})
	if err := loop.Run(vm.NewFuncAt("main", gl(2), func([]vm.Value) vm.Value {
		loop.NextTick(gl(2), hop)
		return vm.Undefined
	})); err != nil {
		t.Fatal(err)
	}
	evs := exp.Events()
	if len(evs) != trace.Capacity {
		t.Fatalf("retained %d events, want %d", len(evs), trace.Capacity)
	}
	dropped := exp.Dropped()
	if dropped == 0 {
		t.Fatal("no drops recorded despite overflowing the ring")
	}
	if first, last := evs[0].Seq, evs[len(evs)-1].Seq; first != dropped+1 || last != dropped+uint64(trace.Capacity) {
		t.Fatalf("retained seqs %d..%d, want the newest %d..%d", first, last, dropped+1, dropped+uint64(trace.Capacity))
	}
	var buf bytes.Buffer
	if err := exp.WriteTo(&buf, trace.FormatNDJSON); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	var last trace.Event
	for dec.More() {
		if err := dec.Decode(&last); err != nil {
			t.Fatal(err)
		}
	}
	if last.Kind != trace.KindSummary || last.Dropped != exp.Dropped() {
		t.Fatalf("summary = %+v, want dropped %d", last, exp.Dropped())
	}
}

func TestParseFormat(t *testing.T) {
	for _, good := range []string{"ndjson", "chrome"} {
		if _, err := trace.ParseFormat(good); err != nil {
			t.Errorf("ParseFormat(%q) = %v", good, err)
		}
	}
	if _, err := trace.ParseFormat("xml"); err == nil {
		t.Error("ParseFormat accepted xml")
	}
}
