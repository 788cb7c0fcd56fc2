package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json these tests compare
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDeclaredMetricsMatchBenchmarkFile: the metric lists the result
// line is built from are exactly those BENCHMARK.json declares, with
// the same units, and so are the workload names.
func TestDeclaredMetricsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	same := func(kind string, declared []metricSpec, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(declared) != len(listed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(listed), len(declared))
			return
		}
		for i, m := range listed {
			if declared[i].name != m.Name || declared[i].unit != m.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, m.Name, m.Unit, declared[i].name, declared[i].unit)
			}
		}
	}
	same("end_to_end", endToEnd, f.EndToEnd)
	same("per_layer", perLayer, f.PerLayer)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark has %v", names, workloadNames())
	}
}

// TestEveryWorkloadEmitsItsMetrics runs each workload for one op in each
// pass and checks that the result line carries every declared metric
// and that no check failed.
func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 1, phase: time.Millisecond, traced: traced, setups: 1, maxOps: 1, ablateN: 8}
			r, _, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			r.Workload, r.Traced = w.name, traced
			r.finish()
			if !r.Correct {
				t.Errorf("%s (traced %v): %d of %d ops failed: %v", w.name, traced, r.Failed, r.Attempted, r.Failures)
			}
			if err := r.writeResult(io.Discard); err != nil {
				t.Errorf("%s (traced %v): %v", w.name, traced, err)
			}
		}
	}
}

// TestPlaybackReproducesFingerprints: the ablation's playback scheduler
// replays the schedules each explore workload ran, so every played-back
// graph has the fingerprint the exploration recorded for it.
func TestPlaybackReproducesFingerprints(t *testing.T) {
	for _, w := range []struct {
		name string
		spec exploreSpec
	}{{"case-random", caseRandom}, {"acmeair-coverage", acmeairCoverage}, {"acmeair-exhaustive", acmeairExhaustive}} {
		res, _, err := w.spec.op(1, 0, workers, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var recorded []scheduled
		for _, rr := range res.Runs {
			recorded = append(recorded, scheduled{target: w.spec.target(1, 0), token: rr.Token, fingerprint: rr.Fingerprint})
		}
		recorded = evenly(recorded, 32)
		distinct := make(map[string]bool)
		for _, rec := range recorded {
			distinct[rec.fingerprint] = true
		}
		if len(distinct) < 2 {
			t.Fatalf("%s: the sampled schedules have %d fingerprint(s); need two to tell playback from the default schedule", w.name, len(distinct))
		}
		ab, err := ablate(recorded)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if ab.mismatches != 0 {
			t.Errorf("%s: %d of %d played-back schedules changed fingerprint", w.name, ab.mismatches, ab.runs)
		}
	}
}

// TestQuartilesMatchPython: the values statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if [3]float64{q1, med, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
		}
	}
}
