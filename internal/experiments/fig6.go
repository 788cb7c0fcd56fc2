// Package experiments implements the paper's evaluation harness (§VII):
// the AcmeAir overhead measurement of Fig. 6(a) — server throughput with
// AsyncG disabled, tracking everything but promises, and tracking
// everything — and the per-request async-API usage of Fig. 6(b), plus
// the Table II capability matrix. The same entry points back the
// regeneration binary (cmd/acmeair-bench) and the root bench suite.
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

// RunSetting executes one AcmeAir run under the given setting and
// returns the measured row (Slowdown unset) plus the counter when one
// was attached.
func RunSetting(setting Setting, load LoadSpec) (Fig6aRow, error) {
	loop := eventloop.New(eventloop.Options{TickLimit: 100_000_000})
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
		loop.Probes().Attach(b)
		loop.Probes().Attach(detect.NewAnalyzer(b, d))
	case WithPromise:
		b = asyncgraph.NewBuilder(asyncgraph.DefaultConfig())
		loop.Probes().Attach(b)
		loop.Probes().Attach(detect.NewAnalyzer(b, detect.DefaultConfig()))
	default:
		return Fig6aRow{}, fmt.Errorf("experiments: unknown setting %q", setting)
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
	if err := loop.Run(main); err != nil {
		return Fig6aRow{}, fmt.Errorf("experiments: %s run: %w", setting, err)
	}
	elapsed := time.Since(start)
	stats := driver.Stats()
	if stats.Completed != load.Requests {
		return Fig6aRow{}, fmt.Errorf("experiments: %s completed %d/%d requests",
			setting, stats.Completed, load.Requests)
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

// RunFig6b drives AcmeAir with the usage counter attached.
func RunFig6b(load LoadSpec) (Fig6bRow, error) {
	row, _, _, err := RunFig6bDetailed(load)
	return row, err
}

// RunFig6bDetailed drives AcmeAir with both the Fig. 6(b) usage counter
// and the trace metrics registry attached, returning the row plus the
// snapshot and the raw counter so callers can cross-validate the two
// measurement paths (their per-API execution counts must agree exactly)
// or print the full metrics report next to the figure.
func RunFig6bDetailed(load LoadSpec) (Fig6bRow, *trace.Snapshot, *instrument.Counter, error) {
	loop := eventloop.New(eventloop.Options{TickLimit: 100_000_000})
	counter := instrument.NewCounter()
	loop.Probes().Attach(counter)
	metrics := trace.NewMetrics(loop, trace.MetricsConfig{})
	loop.Probes().Attach(metrics)
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
	if err := loop.Run(main); err != nil {
		return Fig6bRow{}, nil, nil, err
	}
	n := float64(driver.Stats().Completed)
	if n == 0 {
		return Fig6bRow{}, nil, nil, fmt.Errorf("experiments: no requests completed")
	}
	row := Fig6bRow{
		Requests: driver.Stats().Completed,
		NextTick: float64(counter.NextTick) / n,
		Emitter:  float64(counter.Emitter) / n,
		Promise:  float64(counter.Promise) / n,
	}
	return row, metrics.Snapshot(), counter, nil
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
