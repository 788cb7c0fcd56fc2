// Package experiments implements the paper's evaluation harness (§VII):
// the AcmeAir overhead measurement of Fig. 6(a) — server throughput with
// AsyncG disabled, tracking everything but promises, and tracking
// everything — and the per-request async-API usage of Fig. 6(b), plus
// the Table II capability matrix. One assembly (RunAcmeAir) backs every
// Fig. 6 run; the same entry points back `asyncg fig6` and the root bench
// suite.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
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

// Fig6aRow is one measured configuration. RunSetting fills it from one
// run; RunFig6a from Fig6aRounds runs, with the wall-clock figures
// replaced by their medians.
type Fig6aRow struct {
	Setting    Setting
	Requests   int
	Failed     int
	Elapsed    time.Duration // wall-clock time of the run
	Throughput float64       // requests per wall-clock second
	// ThroughputIQR is the interquartile range of the rounds'
	// throughputs and Rounds holds each round's, in round order; both are
	// set by RunFig6a only.
	ThroughputIQR float64
	Rounds        []float64
	Slowdown      float64 // baseline throughput over this row's
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
// database loaded with load.Data and sealed (so its queries take the
// indexed path an exploration's do), the promise-interface app and the
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
	net := netio.New(loop)
	db := mongosim.New(loop)
	acmeair.LoadSampleData(db, load.Data)
	db.Seal()
	app := acmeair.New(loop, net, db)
	driver := workload.NewDriver(net, workload.Options{
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

// Fig6aRounds is how many times RunFig6a runs each setting.
const Fig6aRounds = 5

// RunFig6a measures every setting in Fig6aRounds rounds. Each round
// runs the three settings in an order rotated by one from the round
// before, so no setting always runs first in a cold process or always
// follows the same neighbour. A row reports its setting's median
// throughput and elapsed time, the throughputs' IQR and each round's
// throughput; slowdowns are the baseline's median over the setting's.
// The simulation is deterministic, so every round must complete, fail
// and build the same: a round that differs is an error.
func RunFig6a(load LoadSpec) ([]Fig6aRow, error) {
	runs := make([][]Fig6aRow, len(Settings))
	for r := 0; r < Fig6aRounds; r++ {
		for k := range Settings {
			i := (r + k) % len(Settings)
			row, err := RunSetting(Settings[i], load)
			if err != nil {
				return nil, err
			}
			if r > 0 {
				if first := runs[i][0]; row.Requests != first.Requests || row.Failed != first.Failed || row.GraphNodes != first.GraphNodes {
					return nil, fmt.Errorf("experiments: %s round %d: %d requests, %d failed, %d AG nodes; round 1: %d, %d, %d",
						row.Setting, r+1, row.Requests, row.Failed, row.GraphNodes, first.Requests, first.Failed, first.GraphNodes)
				}
			}
			runs[i] = append(runs[i], row)
		}
	}
	rows := make([]Fig6aRow, len(Settings))
	for i, rs := range runs {
		row := rs[0]
		row.Rounds = make([]float64, len(rs))
		elapsed := make([]float64, len(rs))
		for r, x := range rs {
			row.Rounds[r] = x.Throughput
			elapsed[r] = float64(x.Elapsed)
		}
		q1, med, q3 := quartiles(append([]float64(nil), row.Rounds...))
		row.Throughput, row.ThroughputIQR = med, q3-q1
		_, medElapsed, _ := quartiles(elapsed)
		row.Elapsed = time.Duration(medElapsed)
		rows[i] = row
	}
	base := rows[0].Throughput
	for i := range rows {
		if rows[i].Throughput > 0 {
			rows[i].Slowdown = base / rows[i].Throughput
		}
	}
	return rows, nil
}

// quartiles returns the first quartile, the median and the third
// quartile of xs as Python's statistics.quantiles(xs, n=4) computes them
// (the "exclusive" method), as bench/ does. It sorts xs in place.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	sort.Float64s(xs)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q[0], q[1], q[2]
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
	fmt.Fprintf(w, "Fig. 6(a) — AcmeAir throughput under AsyncG, median of %d rounds (paper: nopromise ≈ 2x, withpromise ≈ 10x slower)\n", Fig6aRounds)
	fmt.Fprintf(w, "%-12s %10s %12s %14s %10s %10s %10s %14s\n", "setting", "requests", "elapsed", "req/s", "IQR", "slowdown", "AG nodes", "vlat avg/p95")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %10d %12s %14.0f %10.0f %9.2fx %10d %6s/%s\n",
			r.Setting, r.Requests, r.Elapsed.Round(time.Millisecond), r.Throughput, r.ThroughputIQR, r.Slowdown, r.GraphNodes,
			r.AvgLatency.Round(10*time.Microsecond), r.P95Latency.Round(10*time.Microsecond))
	}
}

// fig6aRecord is the JSON form of a Fig. 6(a) measurement.
type fig6aRecord struct {
	Host     fig6aHost      `json:"host"`
	Load     fig6aLoad      `json:"load"`
	Rounds   int            `json:"rounds"`
	Settings []fig6aSetting `json:"settings"`
}

type fig6aHost struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

type fig6aLoad struct {
	Requests          int   `json:"requests"`
	Clients           int   `json:"clients"`
	Seed              int64 `json:"seed"`
	Customers         int   `json:"customers"`
	FlightsPerSegment int   `json:"flightsPerSegment"`
}

type fig6aSetting struct {
	Setting      Setting   `json:"setting"`
	ReqPerSec    float64   `json:"reqPerSecMedian"`
	ReqPerSecIQR float64   `json:"reqPerSecIQR"`
	Rounds       []float64 `json:"reqPerSecRounds"`
	Slowdown     float64   `json:"slowdown"`
	GraphNodes   int       `json:"agNodes"`
	Failed       int       `json:"failed"`
}

// WriteFig6aJSON writes RunFig6a's rows as indented JSON, with the load
// they ran and the host they ran on: the form of the committed
// BENCH_fig6a.json recording.
func WriteFig6aJSON(w io.Writer, load LoadSpec, rows []Fig6aRow) error {
	rec := fig6aRecord{
		Host: fig6aHost{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()},
		Load: fig6aLoad{Requests: load.Requests, Clients: load.Clients, Seed: load.Seed,
			Customers: load.Data.Customers, FlightsPerSegment: load.Data.FlightsPerSegment},
		Rounds: Fig6aRounds,
	}
	for _, r := range rows {
		rec.Settings = append(rec.Settings, fig6aSetting{Setting: r.Setting, ReqPerSec: r.Throughput,
			ReqPerSecIQR: r.ThroughputIQR, Rounds: r.Rounds, Slowdown: r.Slowdown, GraphNodes: r.GraphNodes, Failed: r.Failed})
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteFig6b renders the Fig. 6(b) row.
func WriteFig6b(w io.Writer, row Fig6bRow) {
	fmt.Fprintf(w, "Fig. 6(b) — async-API callback executions per client request (%d requests)\n", row.Requests)
	fmt.Fprintf(w, "%-10s %10s %10s\n", "nextTick", "emitter", "promise")
	fmt.Fprintf(w, "%-10.2f %10.2f %10.2f\n", row.NextTick, row.Emitter, row.Promise)
	fmt.Fprintf(w, "(paper:    8.70       4.31       1.31)\n")
}
