// Package experiments implements the paper's evaluation harness (§VII):
// the AcmeAir overhead measurement of Fig. 6(a) — server throughput with
// AsyncG disabled, tracking everything but promises, and tracking
// everything — and the per-request async-API usage of Fig. 6(b), plus
// the Table II capability matrix. One assembly (RunAcmeAir) backs every
// Fig. 6 run; the same entry points back `asyncg fig6` and the root bench
// suite.
package experiments

import (
	"fmt"
	"io"
	"time"

	"asyncg/internal/acmeair"
	"asyncg/internal/asyncgraph"
	"asyncg/internal/detect"
	"asyncg/internal/eventloop"
	"asyncg/internal/instrument"
	"asyncg/internal/mongosim"
	"asyncg/internal/netio"
	"asyncg/internal/trace"
	"asyncg/internal/vm"
	"asyncg/internal/workload"
)

// Setting names one Fig. 6(a) configuration, matching the artifact's
// log names.
type Setting string

// The three Fig. 6(a) settings.
const (
	Baseline    Setting = "baseline"    // AsyncG disabled
	NoPromise   Setting = "nopromise"   // AsyncG without promise tracking
	WithPromise Setting = "withpromise" // full AsyncG
)

// Settings lists the Fig. 6(a) configurations in presentation order.
var Settings = []Setting{Baseline, NoPromise, WithPromise}

// LoadSpec parameterizes one benchmark run.
type LoadSpec struct {
	Requests int
	Clients  int
	Seed     int64
	Data     acmeair.DataSpec
}

// DefaultLoad is a laptop-scale workload.
func DefaultLoad() LoadSpec {
	return LoadSpec{
		Requests: 2000,
		Clients:  16,
		Seed:     1,
		Data:     acmeair.DefaultDataSpec(),
	}
}

// Fig6aRow is one measured configuration.
type Fig6aRow struct {
	Setting    Setting
	Requests   int
	Failed     int
	Elapsed    time.Duration // wall-clock time of the run
	Throughput float64       // requests per wall-clock second
	Slowdown   float64       // relative to the baseline row
	// AvgLatency and P95Latency are per-request *virtual-time*
	// latencies; identical across settings by construction (the
	// instrumentation costs wall-clock time, not simulated time), so
	// they sanity-check that the tool does not perturb the simulation.
	AvgLatency time.Duration
	P95Latency time.Duration
	// GraphNodes counts the Async Graph nodes the tool built during the
	// run (0 for the baseline): the deterministic work behind the
	// setting's wall-clock cost.
	GraphNodes int
}

// RunAcmeAir assembles one Fig. 6 AcmeAir run — event loop, network,
// database loaded with load.Data, the promise-interface app and the
// closed-loop workload driver — lets attach install probes on the loop
// (nil attaches none), then listens, starts the driver and runs the loop
// to completion. It returns the driver's statistics and the wall-clock
// time of the loop run alone (assembly and data loading excluded); it is
// an error for the run to complete fewer than load.Requests requests.
func RunAcmeAir(load LoadSpec, attach func(*eventloop.Loop)) (workload.Stats, time.Duration, error) {
	loop := eventloop.New(eventloop.Options{TickLimit: 100_000_000})
	if attach != nil {
		attach(loop)
	}
	net := netio.New(loop, netio.Options{})
	db := mongosim.New(loop, mongosim.Options{})
	acmeair.LoadSampleData(db, load.Data)
	app := acmeair.New(loop, net, db, acmeair.Config{UsePromises: true})
	driver := workload.NewDriver(net, workload.Options{
		Port:     app.Port(),
		Clients:  load.Clients,
		Requests: load.Requests,
		Seed:     load.Seed,
	})
	main := vm.NewFuncAt("benchMain", locHere(), func([]vm.Value) vm.Value {
		if err := app.Listen(locHere()); err != nil {
			panic(err)
		}
		driver.Start()
		return vm.Undefined
	})
	start := time.Now()
	err := loop.Run(main)
	elapsed := time.Since(start)
	stats := driver.Stats()
	if err != nil {
		return stats, elapsed, fmt.Errorf("experiments: AcmeAir run: %w", err)
	}
	if stats.Completed != load.Requests {
		return stats, elapsed, fmt.Errorf("experiments: AcmeAir completed %d/%d requests",
			stats.Completed, load.Requests)
	}
	return stats, elapsed, nil
}

// RunSetting executes one AcmeAir run under the given setting and
// returns the measured row (Slowdown unset).
func RunSetting(setting Setting, load LoadSpec) (Fig6aRow, error) {
	var attach func(*eventloop.Loop)
	var b *asyncgraph.Builder
	switch setting {
	case Baseline:
		// No hooks: probes cost one branch per site.
	case NoPromise:
		cfg := asyncgraph.DefaultConfig()
		cfg.Promises = false
		cfg.ChainAnalysis = false
		b = asyncgraph.NewBuilder(cfg)
		d := detect.DefaultConfig()
		d.Promises = false
		attach = func(l *eventloop.Loop) {
			l.Probes().Attach(b)
			l.Probes().Attach(detect.NewAnalyzer(b, d))
		}
	case WithPromise:
		b = asyncgraph.NewBuilder(asyncgraph.DefaultConfig())
		attach = func(l *eventloop.Loop) {
			l.Probes().Attach(b)
			l.Probes().Attach(detect.NewAnalyzer(b, detect.DefaultConfig()))
		}
	default:
		return Fig6aRow{}, fmt.Errorf("experiments: unknown setting %q", setting)
	}
	stats, elapsed, err := RunAcmeAir(load, attach)
	if err != nil {
		return Fig6aRow{}, fmt.Errorf("%s setting: %w", setting, err)
	}
	row := Fig6aRow{
		Setting:    setting,
		Requests:   stats.Completed,
		Failed:     stats.Failed,
		Elapsed:    elapsed,
		Throughput: float64(stats.Completed) / elapsed.Seconds(),
		AvgLatency: stats.AvgLatency(),
		P95Latency: stats.Percentile(95),
	}
	if b != nil {
		row.GraphNodes = len(b.Graph().Nodes)
	}
	return row, nil
}

// RunFig6a measures all three settings and fills in slowdowns relative
// to the baseline.
func RunFig6a(load LoadSpec) ([]Fig6aRow, error) {
	rows := make([]Fig6aRow, 0, len(Settings))
	for _, s := range Settings {
		row, err := RunSetting(s, load)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	base := rows[0].Throughput
	for i := range rows {
		if rows[i].Throughput > 0 {
			rows[i].Slowdown = base / rows[i].Throughput
		}
	}
	return rows, nil
}

// Fig6bRow is the per-request async-API usage of Fig. 6(b).
type Fig6bRow struct {
	Requests int
	NextTick float64 // executions per client request (paper: 8.70)
	Emitter  float64 // (paper: 4.31)
	Promise  float64 // (paper: 1.31)
}

// RunFig6b drives AcmeAir with the metrics registry attached and
// derives the Fig. 6(b) row from its per-API execution counts; the
// snapshot is returned too, for the full metrics report.
func RunFig6b(load LoadSpec) (Fig6bRow, *trace.Snapshot, error) {
	var metrics *trace.Metrics
	stats, _, err := RunAcmeAir(load, func(l *eventloop.Loop) {
		metrics = trace.NewMetrics(l)
		l.Probes().Attach(metrics)
	})
	if err != nil {
		return Fig6bRow{}, nil, err
	}
	snapshot := metrics.Snapshot()
	return Fig6bFrom(snapshot, stats.Completed), snapshot, nil
}

// Fig6bFrom derives the Fig. 6(b) row from the metrics snapshot of a run
// that completed the given number of client requests: the snapshot's
// per-API execution counts summed into the paper's three categories.
func Fig6bFrom(s *trace.Snapshot, requests int) Fig6bRow {
	var nextTick, emitter, promise int64
	for api, st := range s.PerAPI {
		switch {
		case instrument.IsNextTick(api):
			nextTick += st.Count
		case instrument.Categorize(api) == instrument.CatEmitter:
			emitter += st.Count
		case instrument.Categorize(api) == instrument.CatPromise:
			promise += st.Count
		}
	}
	n := float64(requests)
	return Fig6bRow{
		Requests: requests,
		NextTick: float64(nextTick) / n,
		Emitter:  float64(emitter) / n,
		Promise:  float64(promise) / n,
	}
}

// WriteFig6a renders the Fig. 6(a) rows as the harness's table.
func WriteFig6a(w io.Writer, rows []Fig6aRow) {
	fmt.Fprintf(w, "Fig. 6(a) — AcmeAir throughput under AsyncG (paper: nopromise ≈ 2x, withpromise ≈ 10x slower)\n")
	fmt.Fprintf(w, "%-12s %10s %12s %14s %10s %10s %14s\n", "setting", "requests", "elapsed", "req/s", "slowdown", "AG nodes", "vlat avg/p95")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %10d %12s %14.0f %9.2fx %10d %6s/%s\n",
			r.Setting, r.Requests, r.Elapsed.Round(time.Millisecond), r.Throughput, r.Slowdown, r.GraphNodes,
			r.AvgLatency.Round(10*time.Microsecond), r.P95Latency.Round(10*time.Microsecond))
	}
}

// WriteFig6b renders the Fig. 6(b) row.
func WriteFig6b(w io.Writer, row Fig6bRow) {
	fmt.Fprintf(w, "Fig. 6(b) — async-API callback executions per client request (%d requests)\n", row.Requests)
	fmt.Fprintf(w, "%-10s %10s %10s\n", "nextTick", "emitter", "promise")
	fmt.Fprintf(w, "%-10.2f %10.2f %10.2f\n", row.NextTick, row.Emitter, row.Promise)
	fmt.Fprintf(w, "(paper:    8.70       4.31       1.31)\n")
}
