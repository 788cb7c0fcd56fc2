package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asyncg/internal/explore"
)

// goldenDir is the explore package's golden corpus; a fleet merge must
// reproduce its files byte for byte.
const goldenDir = "../explore/testdata/golden"

// TestFleetGolden explores every entry of the golden corpus through two
// in-process workers, cancels the coordinator once it has absorbed its
// first run, and resumes the journal: the resumed Result and its merged
// NDJSON stream must equal the committed single-process files.
func TestFleetGolden(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(goldenDir, "matrix.json"))
	if err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		Name string `json:"name"`
		Plan
	}
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatal(err)
	}
	workers := startWorkers(t, 2)
	for _, e := range entries {
		p := e.Plan
		p.Chains, p.Metrics, p.ShardRuns = true, true, 3
		t.Run(e.Name, func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if _, _, err := Run(ctx, Config{Plan: p, Workers: workers, Dir: dir,
				Progress: func(explore.RunResult) { cancel() }}); err == nil {
				t.Fatal("cancelled run reported success")
			}

			target, err := explore.TargetByName(p.Target)
			if err != nil {
				t.Fatal(err)
			}
			var stream bytes.Buffer
			s := explore.NewNDJSONStream(&stream, target.Name)
			res, stats, err := Run(context.Background(), Config{Plan: p, Workers: workers, Dir: dir, Resume: true,
				Progress: func(rr explore.RunResult) {
					if err := s.Run(rr); err != nil {
						t.Error(err)
					}
				}})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Finish(res); err != nil {
				t.Fatal(err)
			}
			if stats.Resumed == 0 {
				t.Errorf("resume stats %+v: the shard absorbed before the cancel was not loaded from the journal", stats)
			}
			result, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			const hint = "regenerate with `go test ./internal/explore -run TestGolden -update` only if the single-process files changed on purpose"
			want, err := os.ReadFile(filepath.Join(goldenDir, e.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(result, '\n'), want) {
				t.Errorf("resumed fleet Result differs from %s.json (%s)\ngot:\n%s", e.Name, hint, result)
			}
			want, err = os.ReadFile(filepath.Join(goldenDir, e.Name+".ndjson"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stream.Bytes(), want) {
				t.Errorf("resumed fleet NDJSON differs from %s.ndjson (%s)\ngot:\n%s", e.Name, hint, stream.Bytes())
			}
		})
	}
}

// TestSeedPlanFixture: the plan.json files in testdata were written by
// coordinators with every plan field set. seed-journal is a version-2
// journal, whose shards drew from the old generator and reported ag1-
// fingerprints: it must be refused, naming both versions, by LoadPlan
// and by a resume. seed-journal-v3 must still load to the Plan the same
// flags build today, and a resume of it must run.
func TestSeedPlanFixture(t *testing.T) {
	want := Plan{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyExhaustive, Seed: 7, Runs: 6,
		Kinds: "io-order,latency", DelayBound: 3, POR: true, Chains: true, DebugStacks: true}, ShardRuns: 4, Metrics: true}
	workers := startWorkers(t, 1)
	resume := func(fixture string) (*explore.Result, error) {
		b, err := os.ReadFile(filepath.Join("testdata", fixture, "plan.json"))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "plan.json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		res, _, err := Run(context.Background(), Config{Plan: want, Workers: workers, Dir: dir, Resume: true})
		return res, err
	}

	_, loadErr := LoadPlan("testdata/seed-journal")
	_, resumeErr := resume("seed-journal")
	for _, err := range []error{loadErr, resumeErr} {
		if err == nil || !strings.Contains(err.Error(), "journal version 2") || !strings.Contains(err.Error(), "speaks 3") {
			t.Errorf("version-2 journal: err = %v, want a refusal naming versions 2 and 3", err)
		}
	}

	got, err := LoadPlan("testdata/seed-journal-v3")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("LoadPlan = %+v, want %+v", got, want)
	}
	res, err := resume("seed-journal-v3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != want.Runs {
		t.Errorf("resumed the seed plan to %d runs, want %d", len(res.Runs), want.Runs)
	}
}
