package main

import (
	"encoding/json"
	"fmt"
	"io"
	"syscall"
	"time"
)

// metricSpec is one metric BENCHMARK.json declares.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced pass, the ones a user of the
// tool sees. Every workload reports all of them.
var endToEnd = []metricSpec{
	{"sched_per_s", "1/s"},
	{"graphs_per_s", "1/s"},
	{"verdict_ms_p50", "ms"},
	{"verdict_ms_p90", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced pass that every workload can
// measure. Metrics of one workload alone (the server's queue and HTTP
// split, the ablation residual) are printed but not declared.
var perLayer = []metricSpec{
	{"explore.worker_busy_ratio", "ratio"},
	{"explore.overhead_us_per_sched", "us"},
	{"explore.plan_us", "us"},
	{"explore.observe_us", "us"},
	{"explore.planwait_per_op", "count"},
	{"explore.stall_ratio", "ratio"},
	{"explore.finalize_us", "us"},
	{"explore.runner_setup_us", "us"},
	{"explore.replay_us", "us"},
	{"explore.allocs_per_sched", "count"},
	{"explore.bytes_per_sched", "B"},
	{"runner.run_us_p50", "us"},
	{"runner.run_us_p99", "us"},
	{"runner.reset_us", "us"},
	{"runner.ticks_per_run", "count"},
	{"eventloop.run_us", "us"},
	{"asyncgraph.build_us", "us"},
	{"detect.us", "us"},
	{"asyncgraph.fingerprint_us", "us"},
	{"asyncgraph.nodes_per_run", "count"},
	{"asyncgraph.edges_per_run", "count"},
	{"trace.overhead_ratio", "ratio"},
}

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's result.
type report struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   []metric  `json:"metrics"`
	Failures  []string  `json:"failures,omitempty"`
	Notes     []string  `json:"notes,omitempty"` // validity warnings that fail nothing
	SelfTime  []selfRow `json:"selfTime,omitempty"`
}

func (r *report) set(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit})
}

// maxFailures bounds the failure messages kept; Failed counts them all.
const maxFailures = 20

// fail counts one failed op.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// finish sets the verdict and the error ratio.
func (r *report) finish() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.set("error_ratio", "ratio", ratio(float64(r.Failed), float64(r.Attempted)))
}

// setEndToEnd records the metrics of an untraced phase.
func setEndToEnd(r *report, schedules, graphs float64, wall time.Duration, latMs, setups []float64) {
	r.set("sched_per_s", "1/s", ratio(schedules, wall.Seconds()))
	r.set("graphs_per_s", "1/s", ratio(graphs, wall.Seconds()))
	r.set("verdict_ms_p50", "ms", percentile(latMs, 50))
	r.set("verdict_ms_p90", "ms", percentile(latMs, 90))
	r.set("verdict_ms_p99", "ms", percentile(latMs, 99))
	r.set("verdicts", "count", float64(len(latMs)))
	r.set("peak_rss_mb", "MB", peakRSSMB())
	r.set("setup_s", "s", percentile(setups, 50))
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// layerInputs is everything a traced pass measured.
type layerInputs struct {
	sum                   layerSummary
	ab                    ablation
	plainRate, tracedRate float64 // schedules per second, untraced and traced
	allocs, bytes         float64 // MemStats deltas over the untraced half
	schedules, ticks      float64 // totals of the untraced half
}

// setLayers records the per-layer metrics of a traced pass.
func setLayers(r *report, in layerInputs) {
	s, ab := in.sum, in.ab
	r.set("explore.worker_busy_ratio", "ratio", s.busyRatio)
	r.set("explore.overhead_us_per_sched", "us", s.overheadUs)
	r.set("explore.plan_us", "us", s.meanUs[spanPlan])
	r.set("explore.observe_us", "us", s.meanUs[spanObserve])
	r.set("explore.planwait_per_op", "count", s.planWaits)
	r.set("explore.stall_ratio", "ratio", s.stallRatio)
	r.set("explore.finalize_us", "us", s.meanUs[spanFinalize])
	r.set("explore.runner_setup_us", "us", s.runnerSetupUs)
	r.set("explore.replay_us", "us", s.meanUs[spanReplay])
	r.set("explore.allocs_per_sched", "count", ratio(in.allocs, in.schedules))
	r.set("explore.bytes_per_sched", "B", ratio(in.bytes, in.schedules))
	r.set("runner.run_us_p50", "us", s.runP50)
	r.set("runner.run_us_p99", "us", s.runP99)
	r.set("runner.reset_us", "us", s.meanUs[spanReset])
	r.set("runner.ticks_per_run", "count", ratio(in.ticks, in.schedules))
	r.set("eventloop.run_us", "us", ab.eventloopUs)
	r.set("asyncgraph.build_us", "us", ab.buildUs)
	r.set("detect.us", "us", ab.detectUs)
	r.set("asyncgraph.fingerprint_us", "us", ab.fingerprintUs)
	r.set("asyncgraph.nodes_per_run", "count", ab.nodes)
	r.set("asyncgraph.edges_per_run", "count", ab.edges)
	r.set("trace.overhead_ratio", "ratio", ratio(in.plainRate, in.tracedRate))
	r.set("ablation.residual_us", "us", s.runP50-ab.eventloopUs-ab.buildUs-ab.detectUs)
	r.set("ablation.schedules", "count", float64(ab.runs))
	r.set("sched_per_s.untraced", "1/s", in.plainRate)
	r.set("sched_per_s.traced", "1/s", in.tracedRate)
	if ab.mismatches > 0 {
		r.fail("ablation: %d of %d played-back schedules changed fingerprint", ab.mismatches, ab.runs)
	}
	r.SelfTime = s.self
}

// writeTable prints one "workload metric value unit" line per metric,
// any failures, and the self-time table of a traced pass.
func (r *report) writeTable(w io.Writer) {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-18s %-30s %14.6g %s\n", r.Workload, m.Name, m.Value, m.Unit)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%-18s FAILED %s\n", r.Workload, f)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%-18s NOTE %s\n", r.Workload, n)
	}
	if len(r.SelfTime) == 0 {
		return
	}
	fmt.Fprintf(w, "%-18s self time by span: %-17s %9s %11s %11s %11s\n", r.Workload, "name", "count", "total_ms", "self_ms", "self_us/call")
	for _, row := range r.SelfTime {
		fmt.Fprintf(w, "%-18s %36s %9d %11.3f %11.3f %11.3f\n", r.Workload, row.Name, row.Count, row.TotalMs, row.SelfMs, ratio(row.SelfMs*1e3, float64(row.Count)))
	}
}

// writeResult prints the one-line JSON result: the verdict, the op
// counts, and the declared metrics, which are exactly the end-to-end
// list for an untraced pass and the per-layer list for a traced one. A
// declared metric the workload did not measure is an error.
func (r *report) writeResult(w io.Writer) error {
	specs := endToEnd
	if r.Traced {
		specs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	measured := make(map[string]value, len(r.Metrics))
	for _, m := range r.Metrics {
		measured[m.Name] = value{m.Value, m.Unit}
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value, len(specs))}
	for _, s := range specs {
		v, ok := measured[s.name]
		if !ok || v.Unit != s.unit {
			return fmt.Errorf("%s: metric %s (%s) not measured", r.Workload, s.name, s.unit)
		}
		line.Metrics[s.name] = v
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
