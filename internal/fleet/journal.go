package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"asyncg/internal/explore"
)

// The journal is the coordinator's write-ahead state on disk, scoped to
// one directory:
//
//	plan.json        the full Plan, written once before any dispatch
//	                 (atomically: temp file + rename)
//	status.ndjson    append-only shard lifecycle events
//	                 ({"event":"planned|dispatched|done|resumed","shard":N,...})
//	shard-NNNN.ndjson one file per completed shard: a fleet-shard header
//	                 line carrying the ShardSpec (start + RunPlans), the
//	                 worker's raw explore-run lines (locally indexed,
//	                 feedback fields intact), and a closing
//	                 fleet-shard-done line with the run count and the
//	                 shard's merged metrics. The file is written to a
//	                 temp name and renamed, so its existence with a
//	                 matching done line IS the commit record — a
//	                 half-written shard never resumes.
//
// Resume rebuilds the strategy from plan.json and re-forms the same
// shards (their boundaries depend only on the plan), feeding each one
// through the same absorb path, loading journaled shards instead of
// dispatching them. The status log is observability (and what the
// smoke test asserts on); the shard files are the truth.

// Journal line kinds (alongside the explore-run lines inside shard files).
const (
	kindShardHeader = "fleet-shard"
	kindShardDone   = "fleet-shard-done"
)

// planFileVersion guards against resuming a journal written by an
// incompatible coordinator. Version 2: shard headers carry RunPlan
// lists ({start, plans}) instead of per-strategy payloads. Version 3:
// runs draw from the PCG generator and report ag2- fingerprints
// (explore.ShardVersion 2), so a version-2 journal's shard files would
// resume into a Result that mixes two generators and two formats.
const planFileVersion = 3

type planFile struct {
	Version int  `json:"version"`
	Plan    Plan `json:"plan"`
}

// statusEvent is one status.ndjson line.
type statusEvent struct {
	Event  string `json:"event"` // planned, dispatched, done, resumed
	Shard  int    `json:"shard"`
	Start  int    `json:"start,omitempty"`
	Runs   int    `json:"runs,omitempty"`
	Worker string `json:"worker,omitempty"`
	Time   string `json:"time,omitempty"`
}

// shardHeaderLine opens a shard file.
type shardHeaderLine struct {
	Kind  string            `json:"kind"`
	Shard int               `json:"shard"`
	Spec  explore.ShardSpec `json:"spec"`
}

// shardDoneLine commits a shard file.
type shardDoneLine struct {
	Kind    string          `json:"kind"`
	Shard   int             `json:"shard"`
	Runs    int             `json:"runs"`
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// journal manages one coordinator directory.
type journal struct {
	dir    string
	status *os.File
	loaded map[int]*journaledShard // complete shard files found on resume
}

// journaledShard is one shard recovered from disk.
type journaledShard struct {
	spec   explore.ShardSpec
	output *shardOutput
}

// openJournal prepares dir for a run. A fresh run writes plan.json and
// refuses a directory that already has one (resume is explicit, never
// accidental); a resume requires plan.json to exist and match p, and
// loads every complete shard file.
func openJournal(dir string, p Plan, resume bool) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	planPath := filepath.Join(dir, "plan.json")
	j := &journal{dir: dir, loaded: map[int]*journaledShard{}}
	if resume {
		prev, err := readPlan(planPath)
		if err != nil {
			return nil, fmt.Errorf("fleet: resume: %w", err)
		}
		if !prev.equal(p) {
			return nil, fmt.Errorf("fleet: resume: plan in %s does not match (journal: %+v, requested: %+v)", dir, prev, p)
		}
		if err := j.loadShards(); err != nil {
			return nil, err
		}
	} else {
		if _, err := os.Stat(planPath); err == nil {
			return nil, fmt.Errorf("fleet: %s already holds a journal; use resume or a fresh directory", dir)
		}
		if err := writeFileAtomic(planPath, mustJSON(planFile{Version: planFileVersion, Plan: p})); err != nil {
			return nil, err
		}
	}
	status, err := os.OpenFile(filepath.Join(dir, "status.ndjson"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j.status = status
	return j, nil
}

func (j *journal) close() {
	if j.status != nil {
		j.status.Close()
	}
}

// event appends one status line (a single write, so concurrent readers
// of the file never see a torn line).
func (j *journal) event(e statusEvent) {
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	line := append(mustJSON(e), '\n')
	j.status.Write(line)
}

// shardPath names shard idx's result file.
func (j *journal) shardPath(idx int) string {
	return filepath.Join(j.dir, fmt.Sprintf("shard-%04d.ndjson", idx))
}

// commitShard persists a completed shard atomically.
func (j *journal) commitShard(idx int, spec explore.ShardSpec, out *shardOutput) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(shardHeaderLine{Kind: kindShardHeader, Shard: idx, Spec: spec}); err != nil {
		return err
	}
	for _, rr := range out.Runs {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			explore.RunResult
		}{Kind: explore.KindRun, RunResult: rr}); err != nil {
			return err
		}
	}
	done := shardDoneLine{Kind: kindShardDone, Shard: idx, Runs: len(out.Runs)}
	if out.Metrics != nil {
		done.Metrics = mustJSON(out.Metrics)
	}
	if err := enc.Encode(done); err != nil {
		return err
	}
	return writeFileAtomic(j.shardPath(idx), buf.Bytes())
}

// take hands out (and consumes) the journaled shard for idx if its spec
// matches; a mismatching spec means the directory belongs to a
// different plan evolution and is a hard error.
func (j *journal) take(idx int, spec explore.ShardSpec) (*shardOutput, error) {
	js, ok := j.loaded[idx]
	if !ok {
		return nil, nil
	}
	delete(j.loaded, idx)
	if !bytes.Equal(mustJSON(js.spec), mustJSON(spec)) {
		return nil, fmt.Errorf("fleet: journaled shard %d was planned as %+v, expected %+v", idx, js.spec, spec)
	}
	return js.output, nil
}

// loadShards reads every complete shard file in the directory.
// Incomplete files (no done line, truncated, count mismatch, a run line
// a worker's stream would have been refused for) are ignored — those
// shards simply re-run.
func (j *journal) loadShards() error {
	paths, err := filepath.Glob(filepath.Join(j.dir, "shard-*.ndjson"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		idx, js, ok := readShardFile(f)
		f.Close()
		if ok {
			j.loaded[idx] = js
		}
	}
	return nil
}

// readShardFile parses one shard file; ok=false for anything incomplete.
// Its run lines pass the same addRun checks as a streamed shard's, and
// nothing may follow the done line.
func readShardFile(r io.Reader) (int, *journaledShard, bool) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return 0, nil, false
	}
	var hdr shardHeaderLine
	if json.Unmarshal(sc.Bytes(), &hdr) != nil || hdr.Kind != kindShardHeader {
		return 0, nil, false
	}
	out := &shardOutput{}
	committed := false
	for sc.Scan() {
		var line wireLine
		if committed || json.Unmarshal(sc.Bytes(), &line) != nil {
			return 0, nil, false
		}
		switch line.Kind {
		case explore.KindRun:
			if out.addRun(line.RunResult) != nil {
				return 0, nil, false
			}
		case kindShardDone:
			var done shardDoneLine
			if json.Unmarshal(sc.Bytes(), &done) != nil || done.Runs != len(out.Runs) || done.Shard != hdr.Shard {
				return 0, nil, false
			}
			out.Metrics = line.Metrics
			committed = true
		}
	}
	if sc.Err() != nil || !committed || len(out.Runs) != len(hdr.Spec.Plans) {
		return 0, nil, false
	}
	return hdr.Shard, &journaledShard{spec: hdr.Spec, output: out}, true
}

// readPlan loads and version-checks plan.json.
func readPlan(path string) (Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, err
	}
	var pf planFile
	if err := json.Unmarshal(b, &pf); err != nil {
		return Plan{}, fmt.Errorf("parsing %s: %v", path, err)
	}
	if pf.Version != planFileVersion {
		return Plan{}, fmt.Errorf("%s has journal version %d, this coordinator speaks %d", path, pf.Version, planFileVersion)
	}
	return pf.Plan, nil
}

// writeFileAtomic commits data under path via temp file + rename.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
