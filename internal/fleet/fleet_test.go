package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asyncg/internal/explore"
	"asyncg/internal/server"
)

const caseTarget = "case:SO-17894000"

// startWorkers boots n in-process serve workers and returns their base
// URLs.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		svc := server.New(server.Config{QueueSize: 8, Workers: 2})
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(func() {
			ts.Close()
			svc.Shutdown(context.Background())
		})
		urls[i] = ts.URL
	}
	return urls
}

// singleProcess runs the plan with explore.Run — the reference the
// fleet's merged Result must match byte for byte.
func singleProcess(t *testing.T, p Plan) *explore.Result {
	t.Helper()
	p = p.withDefaults()
	target, err := explore.TargetByName(p.Target)
	if err != nil {
		t.Fatal(err)
	}
	_, opts, err := p.Options()
	if err != nil {
		t.Fatal(err)
	}
	opts = append(opts, explore.WithWorkers(2))
	if p.Metrics {
		opts = append(opts, explore.WithRunMetrics())
	}
	res, err := explore.Run(context.Background(), target, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkIdentical(t *testing.T, got, want *explore.Result) {
	t.Helper()
	gj, wj := mustJSON(got), mustJSON(want)
	if !bytes.Equal(gj, wj) {
		t.Errorf("merged result differs from single-process explore.Run\nfleet:  %s\nsingle: %s", gj, wj)
	}
}

// TestFleetMatchesSingleProcess is the acceptance matrix: every
// strategy, POR on and off, at shard widths that do and do not divide
// the budget, against two workers — the merged Result must be
// byte-identical to a single-process run of the same plan.
func TestFleetMatchesSingleProcess(t *testing.T) {
	plans := []Plan{
		{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyRandom, Seed: 3, Runs: 16}},
		{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyDelay, Seed: 7, Runs: 16, DelayBound: 2}},
		{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyCoverage, Seed: 11, Runs: 40}},
		{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyExhaustive, Seed: 1, Runs: 60, Kinds: "io-order,latency"}},
		{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyExhaustive, Seed: 1, Runs: 60, Kinds: "io-order,latency", POR: true}},
	}
	workers := startWorkers(t, 2)
	for _, p := range plans {
		want := singleProcess(t, p)
		for _, width := range []int{1, 5} {
			p := p
			p.ShardRuns = width
			name := fmt.Sprintf("%s-w%d", p.Strategy, width)
			if p.POR {
				name = fmt.Sprintf("%s-por-w%d", p.Strategy, width)
			}
			t.Run(name, func(t *testing.T) {
				var streamed []explore.RunResult
				res, stats, err := Run(context.Background(), Config{
					Plan:    p,
					Workers: workers,
					Dir:     t.TempDir(),
					Progress: func(rr explore.RunResult) {
						streamed = append(streamed, rr)
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				checkIdentical(t, res, want)
				// The progress stream must carry exactly the merged runs in
				// global order — it is what `asyncg fleet -ndjson` emits.
				if !bytes.Equal(mustJSON(streamed), mustJSON(want.Runs)) {
					t.Error("progress stream differs from the single-process run sequence")
				}
				if stats.Resumed != 0 || stats.Dispatched != stats.Shards {
					t.Errorf("fresh run stats: %+v, want everything dispatched", stats)
				}
			})
		}
	}
}

// TestFleetMetrics checks the metrics snapshots merge across shards to
// the same aggregate a single process accumulates run by run.
func TestFleetMetrics(t *testing.T) {
	p := Plan{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyRandom, Seed: 3, Runs: 12}, ShardRuns: 4, Metrics: true}
	want := singleProcess(t, p)
	if want.Metrics == nil {
		t.Fatal("reference run has no metrics snapshot")
	}
	res, _, err := Run(context.Background(), Config{Plan: p, Workers: startWorkers(t, 2), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, res, want)
}

// TestFleetChainsMatchSingleProcess: async causal chains attach after
// the merge, re-derived from witness-token replays, so the fleet's
// classification — chains, witness and counter-witness tokens included —
// must stay byte-identical to a single-process explore.Run of the same
// plan with WithChains.
func TestFleetChainsMatchSingleProcess(t *testing.T) {
	p := Plan{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyRandom, Seed: 3, Runs: 16, Chains: true}, ShardRuns: 5}
	want := singleProcess(t, p)
	chained := 0
	for _, ws := range want.Warnings {
		if len(ws.Chain) > 0 {
			chained++
		}
	}
	if chained == 0 {
		t.Fatal("reference run carries no chains; the equivalence test would prove nothing")
	}
	res, _, err := Run(context.Background(), Config{Plan: p, Workers: startWorkers(t, 2), Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, res, want)
}

// TestFleetResumeCompletedJournal re-runs a finished journal: every
// shard must load from disk, none may re-dispatch, and the Result must
// be unchanged.
func TestFleetResumeCompletedJournal(t *testing.T) {
	p := Plan{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyCoverage, Seed: 11, Runs: 24}, ShardRuns: 5}
	workers := startWorkers(t, 2)
	dir := t.TempDir()
	res1, stats1, err := Run(context.Background(), Config{Plan: p, Workers: workers, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res2, stats2, err := Run(context.Background(), Config{Plan: p, Workers: workers, Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Dispatched != 0 || stats2.Resumed != stats1.Shards {
		t.Errorf("resume stats: %+v, want all %d shards resumed", stats2, stats1.Shards)
	}
	checkIdentical(t, res2, res1)
}

// TestFleetResumeAfterCancel kills a coordinator mid-run (context
// cancel once a few runs have streamed) and resumes it: the completed
// shards must load from the journal, the rest re-run, and the final
// Result must match a single-process run.
func TestFleetResumeAfterCancel(t *testing.T) {
	p := Plan{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyRandom, Seed: 3, Runs: 16}, ShardRuns: 2}
	workers := startWorkers(t, 2)
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runsSeen := 0
	_, _, err := Run(ctx, Config{
		Plan:    p,
		Workers: workers,
		Dir:     dir,
		Progress: func(explore.RunResult) {
			runsSeen++
			if runsSeen == 4 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}

	res, stats, err := Run(context.Background(), Config{Plan: p, Workers: workers, Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed < 2 {
		t.Errorf("resumed %d shards, want at least the 2 absorbed before the cancel", stats.Resumed)
	}
	if stats.Resumed+stats.Dispatched != stats.Shards {
		t.Errorf("stats don't add up: %+v", stats)
	}
	checkIdentical(t, res, singleProcess(t, p))
}

// TestFleetResumeExhaustive: exhaustive shards that are cut short
// while the strategy waits on the frontier must be re-formed exactly
// on resume — shard boundaries depend only on the plan, not on when
// shards completed — so resuming a finished journal dispatches nothing.
func TestFleetResumeExhaustive(t *testing.T) {
	workers := startWorkers(t, 2)
	for _, por := range []bool{false, true} {
		for _, width := range []int{2, 3} {
			p := Plan{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyExhaustive, Runs: 60, Kinds: "io-order,latency", POR: por}, ShardRuns: width}
			t.Run(fmt.Sprintf("por=%v-w%d", por, width), func(t *testing.T) {
				dir := t.TempDir()
				res1, stats1, err := Run(context.Background(), Config{Plan: p, Workers: workers, Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				res2, stats2, err := Run(context.Background(), Config{Plan: p, Workers: workers, Dir: dir, Resume: true})
				if err != nil {
					t.Fatal(err)
				}
				if stats2.Dispatched != 0 || stats2.Resumed != stats2.Shards || stats2.Shards != stats1.Shards {
					t.Errorf("resume stats: %+v (fresh %+v), want all shards resumed", stats2, stats1)
				}
				checkIdentical(t, res2, res1)
			})
		}
	}
}

// TestFleetRejectsBadRunLines: a worker whose run lines cannot be real
// recordings (an unparseable token) fails its attempt — the shard is
// retried on another worker and never journaled — instead of panicking
// the coordinator when the strategy observes the line.
func TestFleetRejectsBadRunLines(t *testing.T) {
	var hits atomic.Int32
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			var req jobRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			hits.Add(1)
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id":"job-%d","status":"queued"}`, len(req.Shard.Plans))
		default:
			var n int
			fmt.Sscanf(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "job-%d", &n)
			for i := 0; i < n; i++ {
				fmt.Fprintf(w, `{"kind":"explore-run","index":%d,"token":"garbage","fingerprint":"x","ticks":1}`+"\n", i)
			}
			fmt.Fprintf(w, `{"kind":"explore-summary","runs":%d}`+"\n", n)
		}
	}))
	defer fake.Close()

	p := Plan{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyExhaustive, Runs: 60, Kinds: "io-order,latency"}, ShardRuns: 3}
	live := startWorkers(t, 1)
	res, stats, err := Run(context.Background(), Config{
		Plan:        p,
		Workers:     []string{fake.URL, live[0]},
		Dir:         t.TempDir(),
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
		MaxAttempts: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits.Load() == 0 || stats.Retries == 0 {
		t.Errorf("fake worker got %d shards and %d retries were recorded; the bad lines were never exercised", hits.Load(), stats.Retries)
	}
	checkIdentical(t, res, singleProcess(t, p))

	_, _, err = Run(context.Background(), Config{Plan: p, Workers: []string{fake.URL}, Dir: t.TempDir(),
		BackoffBase: time.Millisecond, BackoffCap: time.Millisecond, MaxAttempts: 2})
	if err == nil || !strings.Contains(err.Error(), "bad run line") {
		t.Errorf("only a bad worker: err = %v, want a bad-run-line failure", err)
	}
}

// TestFleetResumeRejectsOldJournal: a journal written before shard
// headers carried RunPlans must not resume.
func TestFleetResumeRejectsOldJournal(t *testing.T) {
	p := Plan{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyRandom, Seed: 3, Runs: 4}, ShardRuns: 2}
	dir := t.TempDir()
	old := fmt.Sprintf(`{"version":1,"plan":%s}`, mustJSON(p.withDefaults()))
	if err := os.WriteFile(filepath.Join(dir, "plan.json"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Run(context.Background(), Config{Plan: p, Workers: startWorkers(t, 1), Dir: dir, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "journal version 1") {
		t.Errorf("resuming a version-1 journal: err = %v, want the version error", err)
	}
}

// TestFleetDeadWorkerReassignment puts a dead URL in the worker pool:
// its shards must fail over to the live worker and the merged Result
// stay correct.
func TestFleetDeadWorkerReassignment(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	p := Plan{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyRandom, Seed: 3, Runs: 8}, ShardRuns: 2}
	live := startWorkers(t, 1)
	res, stats, err := Run(context.Background(), Config{
		Plan:        p,
		Workers:     []string{deadURL, live[0]},
		Dir:         t.TempDir(),
		BackoffBase: time.Millisecond,
		BackoffCap:  20 * time.Millisecond,
		MaxAttempts: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries == 0 {
		t.Error("no retries recorded; the dead worker was never tried")
	}
	checkIdentical(t, res, singleProcess(t, p))
}

// TestFleetDrainingWorkerReassignment puts a worker that answers every
// submission with 503, as a draining server does, in the pool: its
// shards must move to the live worker and the merged Result stay
// correct.
func TestFleetDrainingWorkerReassignment(t *testing.T) {
	var refused atomic.Int32
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			refused.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"server is draining"}`)
	}))
	defer draining.Close()

	p := Plan{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyRandom, Seed: 3, Runs: 8}, ShardRuns: 2}
	live := startWorkers(t, 1)
	res, stats, err := Run(context.Background(), Config{
		Plan:        p,
		Workers:     []string{draining.URL, live[0]},
		Dir:         t.TempDir(),
		BackoffBase: time.Millisecond,
		BackoffCap:  20 * time.Millisecond,
		MaxAttempts: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if refused.Load() == 0 || stats.Retries == 0 {
		t.Errorf("draining worker refused %d submissions and %d retries were recorded; it was never tried", refused.Load(), stats.Retries)
	}
	checkIdentical(t, res, singleProcess(t, p))
}

// TestIdleWorkersAvoidFailed: a retry waits for a worker its shard has
// not failed on, even while the failed one sits idle, and takes any
// idle worker once the shard has failed on every one.
func TestIdleWorkersAvoidFailed(t *testing.T) {
	dead, live := newClient("http://dead", time.Second), newClient("http://live", time.Second)
	w := &idleWorkers{all: 2, idle: []*client{dead}, freed: make(chan struct{})} // live is busy
	got := make(chan *client)
	go func() {
		cl, err := w.take(context.Background(), map[*client]bool{dead: true})
		if err != nil {
			t.Error(err)
		}
		got <- cl
	}()
	select {
	case cl := <-got:
		t.Fatalf("took %s while only the failed worker was idle", cl.base)
	case <-time.After(20 * time.Millisecond):
	}
	w.put(live)
	if cl := <-got; cl != live {
		t.Fatalf("took %s, want the live worker once it came back", cl.base)
	}
	if cl, err := w.take(context.Background(), map[*client]bool{dead: true, live: true}); err != nil || cl != dead {
		t.Fatalf("failed on every worker: took %v (err %v), want the idle dead worker", cl, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.take(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("take with no idle worker and a cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestFleetAllWorkersDead: with no live worker the run must fail after
// MaxAttempts, keeping the journal for a later resume.
func TestFleetAllWorkersDead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	p := Plan{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyRandom, Seed: 3, Runs: 4}, ShardRuns: 2}
	dir := t.TempDir()
	_, _, err = Run(context.Background(), Config{
		Plan:        p,
		Workers:     []string{deadURL},
		Dir:         dir,
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
		MaxAttempts: 2,
	})
	if err == nil {
		t.Fatal("run with only a dead worker succeeded")
	}
	if _, err := LoadPlan(dir); err != nil {
		t.Errorf("journal plan unreadable after failure: %v", err)
	}
}

// TestJournalIgnoresIncompleteShard damages three of four committed
// shard files: one loses its done line, one a run's token, and one has
// its runs out of order. Resume must re-dispatch exactly those shards
// and still produce the identical Result.
func TestJournalIgnoresIncompleteShard(t *testing.T) {
	p := Plan{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyRandom, Seed: 3, Runs: 16}, ShardRuns: 4}
	workers := startWorkers(t, 2)
	dir := t.TempDir()
	res1, stats1, err := Run(context.Background(), Config{Plan: p, Workers: workers, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	// Each damage leaves a file a worker's stream would have been
	// refused for; the done lines of the last two stay intact.
	token := regexp.MustCompile(`"token":"[^"]*"`)
	damage := map[string]func(lines []string) []string{
		"shard-0001.ndjson": func(lines []string) []string { return lines[:len(lines)-1] }, // truncated
		"shard-0002.ndjson": func(lines []string) []string { // a corrupted token
			lines[2] = token.ReplaceAllString(lines[2], `"token":"zz.AgIB"`)
			return lines
		},
		"shard-0003.ndjson": func(lines []string) []string { // runs out of order
			lines[1], lines[2] = lines[2], lines[1]
			return lines
		},
	}
	for name, f := range damage {
		path := filepath.Join(dir, name)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := f(strings.Split(strings.TrimRight(string(b), "\n"), "\n"))
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	res2, stats2, err := Run(context.Background(), Config{Plan: p, Workers: workers, Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Dispatched != len(damage) || stats2.Resumed != stats1.Shards-len(damage) {
		t.Errorf("resume stats: %+v, want exactly the %d damaged shards re-dispatched", stats2, len(damage))
	}
	checkIdentical(t, res2, res1)
}

// FuzzShardFile drives the journal's shard-file reader with arbitrary
// bytes, seeded with a committed shard and damaged copies of it. No
// input may panic, and a file the reader accepts must hold exactly one
// valid, in-order run per plan of its header.
func FuzzShardFile(f *testing.F) {
	spec := explore.ShardSpec{Version: explore.ShardVersion, Start: 4, Plans: []explore.RunPlan{
		{Walk: explore.StrategyRandom, Seed: 7}, {Walk: explore.StrategyRandom, Seed: 8},
	}}
	strat, err := explore.ShardStrategy(spec)
	if err != nil {
		f.Fatal(err)
	}
	tg, err := explore.TargetByName(caseTarget)
	if err != nil {
		f.Fatal(err)
	}
	res, err := explore.Run(context.Background(), tg, explore.WithStrategy(strat),
		explore.WithRuns(len(spec.Plans)), explore.WithRunFeedback(), explore.WithRunMetrics())
	if err != nil {
		f.Fatal(err)
	}
	j := &journal{dir: f.TempDir()}
	if err := j.commitShard(1, spec, &shardOutput{Runs: res.Runs, Metrics: res.Metrics}); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(j.shardPath(1))
	if err != nil {
		f.Fatal(err)
	}
	if _, _, ok := readShardFile(bytes.NewReader(good)); !ok {
		f.Fatal("a committed shard file does not read back")
	}
	lines := strings.SplitAfter(string(good), "\n")
	f.Add(good)
	f.Add([]byte(strings.Join(lines[:len(lines)-2], "")))                           // no done line
	f.Add([]byte(lines[0] + lines[2] + lines[1] + strings.Join(lines[3:], "")))     // runs out of order
	f.Add([]byte(strings.Replace(string(good), `"token":"s1.`, `"token":"zz.`, 1))) // a corrupted token
	f.Fuzz(func(t *testing.T, data []byte) {
		_, js, ok := readShardFile(bytes.NewReader(data))
		if !ok {
			return
		}
		if len(js.output.Runs) != len(js.spec.Plans) {
			t.Fatalf("accepted %d runs for %d plans", len(js.output.Runs), len(js.spec.Plans))
		}
		for i, rr := range js.output.Runs {
			if rr.Index != i {
				t.Fatalf("accepted run %d at position %d", rr.Index, i)
			}
			if _, err := rr.Feedback(); err != nil {
				t.Fatalf("accepted a run line that is no recording: %v", err)
			}
		}
	})
}

// TestFleetJournalSafety: a fresh run refuses a directory that already
// holds a journal, and a resume refuses a plan that differs from the
// journaled one.
func TestFleetJournalSafety(t *testing.T) {
	p := Plan{Spec: explore.Spec{Target: caseTarget, Strategy: explore.StrategyRandom, Seed: 3, Runs: 4}, ShardRuns: 2}
	workers := startWorkers(t, 1)
	dir := t.TempDir()
	if _, _, err := Run(context.Background(), Config{Plan: p, Workers: workers, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(context.Background(), Config{Plan: p, Workers: workers, Dir: dir}); err == nil {
		t.Error("fresh run over an existing journal succeeded, want refusal")
	}
	other := p
	other.Seed = 99
	if _, _, err := Run(context.Background(), Config{Plan: other, Workers: workers, Dir: dir, Resume: true}); err == nil {
		t.Error("resume with a different plan succeeded, want refusal")
	}
}

// TestSubmitErrorClassification checks the client's refusal taxonomy:
// 429 parses Retry-After into a busyError, 400 is permanent.
func TestSubmitErrorClassification(t *testing.T) {
	mode := "busy"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode {
		case "busy":
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
		case "bad":
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprint(w, `{"error":"unknown field \"bogus\""}`)
		}
	}))
	defer ts.Close()

	cl := newClient(ts.URL, time.Second)
	spec := explore.ShardSpec{Plans: []explore.RunPlan{{Walk: explore.StrategyRandom}}}
	_, err := cl.submit(context.Background(), jobRequest{Target: caseTarget, Shard: &spec})
	var busy *busyError
	if !errors.As(err, &busy) || busy.retryAfter != 7*time.Second {
		t.Errorf("429 gave %v, want busyError with 7s Retry-After", err)
	}

	mode = "bad"
	_, err = cl.submit(context.Background(), jobRequest{Target: caseTarget, Shard: &spec})
	var perm *permanentError
	if !errors.As(err, &perm) || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("400 gave %v, want permanentError carrying the body", err)
	}
}

// TestBackoffDelay pins the retry schedule: exponential from the base,
// clamped at the cap, overridden by a longer Retry-After hint.
func TestBackoffDelay(t *testing.T) {
	base, cap := 100*time.Millisecond, time.Second
	cases := []struct {
		n    int
		err  error
		want time.Duration
	}{
		{0, nil, 100 * time.Millisecond},
		{1, nil, 200 * time.Millisecond},
		{3, nil, 800 * time.Millisecond},
		{4, nil, time.Second},                                         // clamped
		{70, nil, time.Second},                                        // shift overflow clamps too
		{0, &busyError{retryAfter: 3 * time.Second}, 3 * time.Second}, // hint wins
		{0, &busyError{retryAfter: time.Millisecond}, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := backoffDelay(c.n, base, cap, c.err); got != c.want {
			t.Errorf("backoffDelay(%d, %v) = %v, want %v", c.n, c.err, got, c.want)
		}
	}
}
