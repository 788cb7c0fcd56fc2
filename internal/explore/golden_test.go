package explore

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden explorations in testdata/golden/")

// goldenDir holds the golden corpus: matrix.json lists the explorations,
// and each entry's canonical Result JSON (<name>.json) and NDJSON
// progress stream (<name>.ndjson) sit next to it. The fleet tests read
// the same files, so a fleet merge is held to the same bytes.
const goldenDir = "testdata/golden"

// goldenHint is appended to every golden mismatch: fingerprints and
// warning keys hash the file:line of the program's call sites, so an
// edit to a case study or to the AcmeAir sources moves the goldens
// without any change to the engine.
const goldenHint = "if the change is intended, regenerate with `go test ./internal/explore -run TestGolden -update` " +
	"(fingerprints and warning keys hash file:line, so editing a case-study or AcmeAir source file moves these files)"

// goldenEntry is one exploration of the golden corpus. Every entry runs
// with chains and run metrics, so the files pin the whole Result.
type goldenEntry struct {
	Name string `json:"name"`
	Spec
}

func loadGoldenMatrix(t testing.TB) []goldenEntry {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(goldenDir, "matrix.json"))
	if err != nil {
		t.Fatal(err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatal(err)
	}
	return entries
}

// exploreGolden runs one entry at the given worker count and returns
// its indented Result JSON and its NDJSON stream, the stream written
// the way `asyncg explore -ndjson` writes it.
func exploreGolden(t *testing.T, tg Target, e goldenEntry, workers int) (result, stream []byte) {
	t.Helper()
	e.Chains = true
	_, opts, err := e.Options()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s := NewNDJSONStream(&buf, tg.Name)
	res := mustRun(t, tg, append(opts, WithWorkers(workers), WithRunMetrics(), WithProgress(func(rr RunResult) {
		if err := s.Run(rr); err != nil {
			t.Error(err)
		}
	}))...)
	if err := s.Finish(res); err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n'), buf.Bytes()
}

// TestGolden pins every entry of the golden corpus at 1, 2 and 8
// workers, on reused runners and on a fresh runtime per schedule: all
// six explorations must reproduce the committed Result and stream byte
// for byte.
func TestGolden(t *testing.T) {
	for _, e := range loadGoldenMatrix(t) {
		t.Run(e.Name, func(t *testing.T) {
			tg, err := TargetByName(e.Target)
			if err != nil {
				t.Fatal(err)
			}
			resultPath := filepath.Join(goldenDir, e.Name+".json")
			streamPath := filepath.Join(goldenDir, e.Name+".ndjson")
			if *update {
				result, stream := exploreGolden(t, tg, e, 1)
				if err := os.WriteFile(resultPath, result, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(streamPath, stream, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantResult, err := os.ReadFile(resultPath)
			if err != nil {
				t.Fatalf("%v (%s)", err, goldenHint)
			}
			wantStream, err := os.ReadFile(streamPath)
			if err != nil {
				t.Fatalf("%v (%s)", err, goldenHint)
			}
			reused, fresh := tg, tg
			reused.Run = nil
			fresh.NewRunner = nil
			for _, v := range []struct {
				runners string
				tg      Target
			}{{"reused", reused}, {"fresh", fresh}} {
				for _, workers := range []int{1, 2, 8} {
					result, stream := exploreGolden(t, v.tg, e, workers)
					where := fmt.Sprintf("%s runners, %d worker(s)", v.runners, workers)
					if !bytes.Equal(result, wantResult) {
						t.Errorf("%s: Result differs from %s\n%s\ngot:\n%s", where, resultPath, goldenHint, result)
					}
					if !bytes.Equal(stream, wantStream) {
						t.Errorf("%s: NDJSON stream differs from %s\n%s\ngot:\n%s", where, streamPath, goldenHint, stream)
					}
				}
			}
		})
	}
}

// TestGoldenDeterministic runs one entry twice in one process: the
// precondition for goldens at all.
func TestGoldenDeterministic(t *testing.T) {
	e := loadGoldenMatrix(t)[0]
	tg, err := TargetByName(e.Target)
	if err != nil {
		t.Fatal(err)
	}
	r1, s1 := exploreGolden(t, tg, e, 2)
	r2, s2 := exploreGolden(t, tg, e, 2)
	if !bytes.Equal(r1, r2) || !bytes.Equal(s1, s2) {
		t.Errorf("%s explored twice gave different bytes", e.Name)
	}
}
