package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"asyncg/internal/acmeair"
)

// smallLoad keeps unit tests fast; benchmarks use DefaultLoad.
func smallLoad() LoadSpec {
	return LoadSpec{
		Requests: 300,
		Clients:  8,
		Seed:     7,
		Data:     acmeair.DataSpec{Customers: 20, FlightsPerSegment: 3},
	}
}

func TestFig6aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement in -short mode")
	}
	rows, err := RunFig6a(smallLoad())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	base, nop, full := rows[0], rows[1], rows[2]
	if base.Setting != Baseline || nop.Setting != NoPromise || full.Setting != WithPromise {
		t.Fatalf("settings out of order: %+v", rows)
	}
	for _, r := range rows {
		if r.Failed != 0 {
			t.Fatalf("%s: %d failed requests", r.Setting, r.Failed)
		}
		if len(r.Rounds) != Fig6aRounds {
			t.Fatalf("%s: %d rounds, want %d", r.Setting, len(r.Rounds), Fig6aRounds)
		}
	}
	// The paper's shape — full tracking costs the most, the no-promise
	// setting less, the baseline nothing — asserted on the work each
	// setting does rather than on wall time, which at this scale is
	// within the host's noise (nopromise and withpromise differ by
	// ~5-10%). Throughput is logged for the record.
	if !(base.GraphNodes == 0 && nop.GraphNodes > 0 && full.GraphNodes > nop.GraphNodes) {
		t.Errorf("graph nodes built: baseline=%d nopromise=%d withpromise=%d, want 0 < nopromise < withpromise",
			base.GraphNodes, nop.GraphNodes, full.GraphNodes)
	}
	t.Logf("baseline=%.0f req/s nopromise=%.0f (%.2fx) withpromise=%.0f (%.2fx); graph nodes %d / %d / %d",
		base.Throughput, nop.Throughput, nop.Slowdown, full.Throughput, full.Slowdown,
		base.GraphNodes, nop.GraphNodes, full.GraphNodes)
}

func TestFig6bMatchesPaperShape(t *testing.T) {
	row, _, err := RunFig6b(smallLoad())
	if err != nil {
		t.Fatal(err)
	}
	if !(row.NextTick > row.Emitter && row.Emitter > row.Promise) {
		t.Fatalf("ordering: nextTick=%.2f emitter=%.2f promise=%.2f", row.NextTick, row.Emitter, row.Promise)
	}
	// Magnitudes within a factor ~2 of the paper's 8.70 / 4.31 / 1.31.
	within := func(got, paper float64) bool { return got > paper/2 && got < paper*2 }
	if !within(row.NextTick, 8.70) || !within(row.Emitter, 4.31) || !within(row.Promise, 1.31) {
		t.Fatalf("magnitudes off: nextTick=%.2f emitter=%.2f promise=%.2f", row.NextTick, row.Emitter, row.Promise)
	}
	t.Logf("nextTick=%.2f emitter=%.2f promise=%.2f (paper: 8.70 / 4.31 / 1.31)", row.NextTick, row.Emitter, row.Promise)
}

func TestWriteHelpers(t *testing.T) {
	var sb strings.Builder
	WriteFig6a(&sb, []Fig6aRow{{Setting: Baseline, Requests: 10, Throughput: 100, Slowdown: 1}})
	if !strings.Contains(sb.String(), "baseline") {
		t.Fatalf("fig6a output: %s", sb.String())
	}
	sb.Reset()
	WriteFig6b(&sb, Fig6bRow{Requests: 10, NextTick: 8, Emitter: 4, Promise: 1})
	if !strings.Contains(sb.String(), "nextTick") {
		t.Fatalf("fig6b output: %s", sb.String())
	}
	sb.Reset()
	WriteTable2(&sb)
	out := sb.String()
	if !strings.Contains(out, "AsyncG") || !strings.Contains(out, "Radar") {
		t.Fatalf("table2 output: %s", out)
	}
	if strings.Count(out, "\n") != 10 { // header x2 + 8 rows
		t.Fatalf("table2 rows: %q", out)
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(xs, n=4) on the round counts RunFig6a uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles = %v, want %v", got, c.want)
		}
	}
}

func TestWriteFig6aJSON(t *testing.T) {
	rows := []Fig6aRow{
		{Setting: Baseline, Throughput: 100, ThroughputIQR: 4, Rounds: []float64{98, 100, 103}, Slowdown: 1},
		{Setting: WithPromise, Throughput: 40, Rounds: []float64{40, 40, 41}, Slowdown: 2.5, GraphNodes: 9},
	}
	var sb strings.Builder
	if err := WriteFig6aJSON(&sb, smallLoad(), rows); err != nil {
		t.Fatal(err)
	}
	var rec fig6aRecord
	if err := json.Unmarshal([]byte(sb.String()), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Host.CPUs == 0 || rec.Host.Go == "" || rec.Load.Requests != 300 || rec.Rounds != Fig6aRounds {
		t.Fatalf("record header: %+v", rec)
	}
	if len(rec.Settings) != 2 || rec.Settings[1].Slowdown != 2.5 || rec.Settings[1].GraphNodes != 9 || len(rec.Settings[0].Rounds) != 3 {
		t.Fatalf("record settings: %+v", rec.Settings)
	}
}

func TestRunSettingRejectsUnknown(t *testing.T) {
	if _, err := RunSetting(Setting("bogus"), smallLoad()); err == nil {
		t.Fatal("unknown setting accepted")
	}
}

// TestFig6bExactCounts pins the Fig. 6(b) row to exact per-category
// execution counts on a fixed load — 2532 nextTick, 1425 emitter and 390
// promise executions over 300 requests (8.44 / 4.75 / 1.30 per request),
// 7650 in-scope executions in all — so a probe or categorization change
// that moves the population fails here rather than drifting inside the
// shape test's ×2 window.
func TestFig6bExactCounts(t *testing.T) {
	row, snapshot, err := RunFig6b(smallLoad())
	if err != nil {
		t.Fatal(err)
	}
	want := Fig6bRow{Requests: 300, NextTick: 2532.0 / 300, Emitter: 1425.0 / 300, Promise: 390.0 / 300}
	if row != want {
		t.Errorf("row = %+v, want %+v", row, want)
	}
	if snapshot.Executions != 7650 {
		t.Errorf("in-scope executions = %d, want 7650", snapshot.Executions)
	}
	// AcmeAir is purely I/O-driven: no timers should fire at all.
	if snapshot.TimerLag.Count != 0 {
		t.Errorf("unexpected timer fires on AcmeAir: %d", snapshot.TimerLag.Count)
	}
	if snapshot.Iterations == 0 {
		t.Error("no loop iterations observed")
	}
}
