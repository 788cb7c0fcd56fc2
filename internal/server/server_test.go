package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"asyncg"
	"asyncg/internal/eventloop"
	"asyncg/internal/explore"
)

// spinTarget never finishes a run on its own: an endless setImmediate
// chain under an absurd tick limit. Jobs built on it only end through
// cancellation (DELETE, deadline, disconnect, hard-stop), which makes
// queue pressure and drain behavior deterministic in tests.
func spinTarget(string) (explore.Target, error) {
	return explore.Target{
		Name: "spin",
		Run: func(extra ...asyncg.Option) (*asyncg.Report, error) {
			opts := append([]asyncg.Option{asyncg.WithLoop(eventloop.Options{TickLimit: math.MaxInt})}, extra...)
			s := asyncg.New(opts...)
			return s.Run(func(ctx *asyncg.Context) {
				var spin *asyncg.Function
				spin = asyncg.F("spin", func(args []asyncg.Value) asyncg.Value {
					ctx.SetImmediate(spin)
					return asyncg.Undefined
				})
				ctx.SetImmediate(spin)
			})
		},
	}, nil
}

// panicTarget blows up mid-run; the worker must survive it.
func panicTarget(string) (explore.Target, error) {
	return explore.Target{
		Name: "panic",
		Run: func(extra ...asyncg.Option) (*asyncg.Report, error) {
			panic("deliberate test panic")
		},
	}, nil
}

// leakCheck fails the test if the goroutine count has not returned to
// its starting level by the end; worker unwinding gets a grace period.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			if n := runtime.NumGoroutine(); n <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}

func postJob(t *testing.T, ts *httptest.Server, spec string) (int, view) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v view
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decoding job view: %v", err)
		}
	}
	return resp.StatusCode, v
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitStatus polls a job until it reaches a terminal status.
func waitStatus(t *testing.T, ts *httptest.Server, id string, want jobStatus) view {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var v view
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if v.Status == want {
			return v
		}
		if v.Status == statusDone || v.Status == statusFailed || v.Status == statusCancelled {
			t.Fatalf("job %s reached %s, want %s (error: %s)", id, v.Status, want, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %s, want %s", id, v.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobLifecycle: submit a real case-study exploration, watch it
// finish, and check the service's Result JSON is byte-identical to the
// same exploration run directly through the options API.
func TestJobLifecycle(t *testing.T) {
	leakCheck(t)
	s := New(Config{QueueSize: 4, Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, v := postJob(t, ts, `{"target":"case:SO-17894000","runs":8,"seed":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	if v.ID == "" || v.Status != statusQueued {
		t.Fatalf("POST view: %+v", v)
	}
	waitStatus(t, ts, v.ID, statusDone)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: status %d: %s", resp.StatusCode, got)
	}

	tg, err := explore.TargetByName("case:SO-17894000")
	if err != nil {
		t.Fatal(err)
	}
	res, err := explore.Run(context.Background(), tg,
		explore.WithRuns(8), explore.WithSeed(3), explore.WithRunMetrics())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(res)
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(buf.Bytes())) {
		t.Errorf("service result differs from direct explore.Run:\n service: %s\n direct:  %s", got, buf.Bytes())
	}
}

// TestJobChains: a job submitted with "chains" must return a result
// whose witnessed warning stats carry their async causal chains and
// replay tokens, byte-identical to a direct explore.Run with WithChains.
func TestJobChains(t *testing.T) {
	leakCheck(t)
	s := New(Config{QueueSize: 4, Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, v := postJob(t, ts, `{"target":"case:fig4","runs":4,"seed":1,"chains":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	waitStatus(t, ts, v.ID, statusDone)

	var got explore.Result
	if code := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/result", &got); code != http.StatusOK {
		t.Fatalf("GET result: status %d", code)
	}
	chained := 0
	for _, ws := range got.Warnings {
		if ws.Witness == "" {
			continue
		}
		chained++
		if len(ws.Chain) == 0 {
			t.Errorf("%s: witnessed warning in service result has no chain", ws.Key)
		}
	}
	if chained == 0 {
		t.Fatal("result has no witnessed warnings; chains never exercised")
	}
}

// TestStreamNDJSON: the stream endpoint replays every explore-run line
// and ends with the explore-summary — the same format the CLI writes.
func TestStreamNDJSON(t *testing.T) {
	leakCheck(t)
	s := New(Config{QueueSize: 4, Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, v := postJob(t, ts, `{"target":"case:SO-17894000","runs":6,"seed":1}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	runs, lastKind := 0, ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Kind == explore.KindRun {
			runs++
		}
		lastKind = line.Kind
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if runs != 6 {
		t.Errorf("streamed %d run lines, want 6", runs)
	}
	if lastKind != explore.KindSummary {
		t.Errorf("stream ended with kind %q, want %q", lastKind, explore.KindSummary)
	}
}

// TestQueueOverflow is the acceptance load test: 200 concurrent
// submissions against queue capacity 8 and a single worker pinned by
// never-ending jobs. No submission may block; the overflow must be
// refused with 429 + Retry-After; everything cancels cleanly afterward.
func TestQueueOverflow(t *testing.T) {
	leakCheck(t)
	s := New(Config{QueueSize: 8, Workers: 1, LookupTarget: spinTarget})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const submissions = 200
	var (
		mu       sync.Mutex
		accepted []string
		rejected int
	)
	var wg sync.WaitGroup
	for i := 0; i < submissions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
				strings.NewReader(`{"target":"spin","runs":2}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				var v view
				json.NewDecoder(resp.Body).Decode(&v)
				mu.Lock()
				accepted = append(accepted, v.ID)
				mu.Unlock()
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				mu.Lock()
				rejected++
				mu.Unlock()
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	if len(accepted)+rejected != submissions {
		t.Fatalf("accepted %d + rejected %d != %d", len(accepted), rejected, submissions)
	}
	// One running + 8 queued must be admitted; with a spinning worker the
	// queue can only drain by cancellation, so acceptance stays close to
	// capacity.
	if len(accepted) < 9 {
		t.Errorf("accepted %d < capacity+1", len(accepted))
	}
	if rejected < submissions-2*(s.cfg.QueueSize+1) {
		t.Errorf("only %d rejections for %d submissions over a full queue", rejected, submissions)
	}

	// Cancel everything; every accepted job must reach cancelled.
	client := &http.Client{}
	for _, id := range accepted {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for _, id := range accepted {
		waitStatus(t, ts, id, statusCancelled)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after cancel-all: %v", err)
	}
}

// TestJobDeadline: a per-job timeoutMs cuts a never-ending job off.
func TestJobDeadline(t *testing.T) {
	leakCheck(t)
	s := New(Config{QueueSize: 2, Workers: 1, LookupTarget: spinTarget})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	_, v := postJob(t, ts, `{"target":"spin","runs":2,"timeoutMs":100}`)
	got := waitStatus(t, ts, v.ID, statusCancelled)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	if !strings.Contains(got.Error, "deadline") {
		t.Errorf("cancelled job error = %q, want a deadline error", got.Error)
	}
}

// TestWaitClientDisconnect: in ?wait=1 mode the client connection owns
// the job — dropping it cancels the exploration.
func TestWaitClientDisconnect(t *testing.T) {
	leakCheck(t)
	s := New(Config{QueueSize: 2, Workers: 1, LookupTarget: spinTarget})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqCtx, cancelReq := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(reqCtx, http.MethodPost, ts.URL+"/v1/jobs?wait=1",
		strings.NewReader(`{"target":"spin","runs":2}`))
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Wait for the job to exist and start spinning, then hang up.
	var id string
	deadline := time.Now().Add(5 * time.Second)
	for id == "" {
		var list struct{ Jobs []view }
		getJSON(t, ts.URL+"/v1/jobs", &list)
		if len(list.Jobs) > 0 && list.Jobs[0].Status == statusRunning {
			id = list.Jobs[0].ID
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelReq()
	if err := <-errc; err == nil {
		t.Error("request succeeded despite disconnect")
	}
	waitStatus(t, ts, id, statusCancelled)
}

// TestShutdownDrain: a graceful shutdown lets short jobs finish and
// refuses new work with 503.
func TestShutdownDrain(t *testing.T) {
	leakCheck(t)
	s := New(Config{QueueSize: 4, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, v := postJob(t, ts, `{"target":"case:SO-17894000","runs":4}`)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	var got view
	getJSON(t, ts.URL+"/v1/jobs/"+v.ID, &got)
	if got.Status != statusDone {
		t.Errorf("drained job status = %s (error %q), want done", got.Status, got.Error)
	}
	if code, _ := postJob(t, ts, `{"target":"case:SO-17894000"}`); code != http.StatusServiceUnavailable {
		t.Errorf("POST during drain: status %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status %d, want 503", code)
	}
}

// TestShutdownHardStop: when the drain deadline expires, outstanding
// never-ending jobs are cancelled rather than waited for, and no worker
// goroutine is left behind.
func TestShutdownHardStop(t *testing.T) {
	leakCheck(t)
	s := New(Config{QueueSize: 4, Workers: 2, LookupTarget: spinTarget})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, v1 := postJob(t, ts, `{"target":"spin","runs":2}`)
	_, v2 := postJob(t, ts, `{"target":"spin","runs":2}`)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("hard stop took %v", elapsed)
	}
	for _, id := range []string{v1.ID, v2.ID} {
		var got view
		getJSON(t, ts.URL+"/v1/jobs/"+id, &got)
		if got.Status != statusCancelled {
			t.Errorf("job %s after hard stop: %s, want cancelled", id, got.Status)
		}
	}
}

// TestPanicIsolation: a panicking target fails its job but the worker
// pool keeps serving.
func TestPanicIsolation(t *testing.T) {
	leakCheck(t)
	lookup := func(spec string) (explore.Target, error) {
		if spec == "panic" {
			return panicTarget(spec)
		}
		return explore.TargetByName(spec)
	}
	s := New(Config{QueueSize: 4, Workers: 1, LookupTarget: lookup})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, bad := postJob(t, ts, `{"target":"panic","runs":2}`)
	got := waitStatus(t, ts, bad.ID, statusFailed)
	if !strings.Contains(got.Error, "panicked") {
		t.Errorf("failed job error = %q, want a panic message", got.Error)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+bad.ID+"/result", nil); code != http.StatusInternalServerError {
		t.Errorf("result of failed job: status %d, want 500", code)
	}

	// With workers > 1 the panic fires on a schedule-pool goroutine, not
	// the job's coordinator — it must still fail only the job, never the
	// process (regression: an unrecovered pool panic killed the binary).
	_, bad4 := postJob(t, ts, `{"target":"panic","runs":4,"workers":4}`)
	got4 := waitStatus(t, ts, bad4.ID, statusFailed)
	if !strings.Contains(got4.Error, "panicked") {
		t.Errorf("failed multi-worker job error = %q, want a panic message", got4.Error)
	}

	_, ok := postJob(t, ts, `{"target":"case:SO-17894000","runs":4}`)
	waitStatus(t, ts, ok.ID, statusDone)
}

// TestFinishedJobEviction: terminal jobs beyond MaxFinishedJobs are
// evicted oldest-first — their results and stream buffers released, the
// IDs answering 404 — while newer jobs stay queryable, so a long-lived
// service holds a bounded job table.
func TestFinishedJobEviction(t *testing.T) {
	leakCheck(t)
	s := New(Config{QueueSize: 4, Workers: 1, MaxFinishedJobs: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		_, v := postJob(t, ts, `{"target":"case:SO-17894000","runs":2}`)
		waitStatus(t, ts, v.ID, statusDone)
		ids = append(ids, v.ID)
	}

	// Eviction runs just after the terminal status becomes visible, so
	// poll the listing down to the retention bound.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var list struct{ Jobs []view }
		getJSON(t, ts.URL+"/v1/jobs", &list)
		if len(list.Jobs) == 2 {
			if list.Jobs[0].ID != ids[2] || list.Jobs[1].ID != ids[3] {
				t.Fatalf("retained jobs = %s, %s; want the newest two %s, %s",
					list.Jobs[0].ID, list.Jobs[1].ID, ids[2], ids[3])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job table never shrank to 2 (have %d)", len(list.Jobs))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range ids[:2] {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, nil); code != http.StatusNotFound {
			t.Errorf("evicted job %s: status %d, want 404", id, code)
		}
	}
	for _, id := range ids[2:] {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, nil); code != http.StatusOK {
			t.Errorf("retained job %s: status %d, want 200", id, code)
		}
	}
}

// TestBadSubmissions: validation failures are 400s with a message, not
// accepted jobs.
func TestBadSubmissions(t *testing.T) {
	s := New(Config{QueueSize: 2, Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`not json`,
		`{"target":""}`,
		`{"target":"case:no-such-case"}`,
		`{"target":"case:SO-17894000","strategy":"bogus"}`,
		`{"target":"case:SO-17894000","kinds":"bogus-kind"}`,
		`{"target":"case:SO-17894000","runs":-1}`,
	} {
		if code, _ := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, code)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("GET unknown job: status %d, want 404", code)
	}
}

// TestJobWorkersBounded: a workers field outside 0..maxJobWorkers is a
// 400 that names the field, and a job at the bound runs.
func TestJobWorkersBounded(t *testing.T) {
	s := New(Config{QueueSize: 2, Workers: 1})
	defer s.Shutdown(context.Background())
	for _, body := range []string{
		`{"target":"case:SO-17894000","runs":1,"workers":100000000}`,
		`{"target":"case:SO-17894000","runs":1,"workers":-1}`,
	} {
		rec := httptest.NewRecorder()
		if s.parseJob(rec, strings.NewReader(body)) != nil {
			t.Fatalf("POST %s accepted, want 400", body)
		}
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "workers") {
			t.Errorf("POST %s: %d %s, want a 400 naming workers", body, rec.Code, rec.Body)
		}
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := fmt.Sprintf(`{"target":"case:SO-17894000","runs":2,"workers":%d}`, maxJobWorkers)
	code, v := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST %s: status %d, want 202", body, code)
	}
	if v = waitStatus(t, ts, v.ID, statusDone); v.Runs != 2 {
		t.Errorf("POST %s: %d runs, want 2", body, v.Runs)
	}
}

// TestTargetsHealthzMetrics covers the discovery and observability
// endpoints end to end: the registry listing, liveness, and the merged
// per-run metrics snapshot after a completed job.
func TestTargetsHealthzMetrics(t *testing.T) {
	leakCheck(t)
	s := New(Config{QueueSize: 4, Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var targets struct{ Targets []explore.TargetInfo }
	if code := getJSON(t, ts.URL+"/v1/targets", &targets); code != http.StatusOK {
		t.Fatalf("GET /v1/targets: %d", code)
	}
	if len(targets.Targets) == 0 || targets.Targets[0].Name != "acmeair" {
		t.Errorf("targets listing: %+v", targets.Targets)
	}

	var health struct {
		Status   string `json:"status"`
		Capacity int    `json:"capacity"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("GET /healthz: %d", code)
	}
	if health.Status != "ok" || health.Capacity != 4 {
		t.Errorf("healthz: %+v", health)
	}

	_, v := postJob(t, ts, `{"target":"case:SO-17894000","runs":4}`)
	waitStatus(t, ts, v.ID, statusDone)

	var metrics struct {
		Jobs         map[string]int64 `json:"jobs"`
		RunsExplored int64            `json:"runsExplored"`
		Explore      struct {
			Ticks int64 `json:"ticks"`
		} `json:"explore"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &metrics); code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	if metrics.Jobs["accepted"] != 1 || metrics.Jobs["done"] != 1 {
		t.Errorf("job counters: %+v", metrics.Jobs)
	}
	if metrics.RunsExplored != 4 {
		t.Errorf("runsExplored = %d, want 4", metrics.RunsExplored)
	}
	if metrics.Explore.Ticks == 0 {
		t.Error("merged explore snapshot has zero ticks; per-run metrics are not aggregating")
	}
}

// TestStreamFollowsLive: a subscriber attached mid-job receives lines
// as they are produced, not only at the end.
func TestStreamFollowsLive(t *testing.T) {
	leakCheck(t)
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	// A target whose second run blocks until released, so the stream
	// provably has a "mid-job" window.
	lookup := func(string) (explore.Target, error) {
		tg, err := explore.TargetByName("case:SO-17894000")
		if err != nil {
			return tg, err
		}
		inner := tg.Run
		n := 0
		var mu sync.Mutex
		tg.Run = func(extra ...asyncg.Option) (*asyncg.Report, error) {
			mu.Lock()
			n++
			wait := n > 1
			mu.Unlock()
			if wait {
				<-block
			}
			return inner(extra...)
		}
		return tg, nil
	}
	s := New(Config{QueueSize: 2, Workers: 1, LookupTarget: lookup})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, v := postJob(t, ts, `{"target":"x","runs":3,"workers":1}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line while the job is still running: %v", sc.Err())
	}
	var first struct {
		Kind  string `json:"kind"`
		Index int    `json:"index"`
	}
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Kind != explore.KindRun || first.Index != 0 {
		t.Errorf("first live line = %+v", first)
	}
	release()
	for sc.Scan() {
	}
	waitStatus(t, ts, v.ID, statusDone)
}

// TestUnknownFieldRejected: jobSpec decoding refuses unknown fields and
// names the offender in a structured body, so a version-skewed fleet
// coordinator fails fast instead of silently running a default job.
func TestUnknownFieldRejected(t *testing.T) {
	s := New(Config{QueueSize: 2, Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"target":"case:SO-17894000","shardSeed":9}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST with unknown field: status %d, want 400", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
		Field string `json:"field"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Field != "shardSeed" || !strings.Contains(body.Error, `"shardSeed"`) {
		t.Errorf("error body = %+v, want the bad field named", body)
	}
}

// TestShardJob: a shard-scoped job executes exactly its window of the
// global exploration — the runs match the full walk at the shifted
// indices and carry their choice-point records — and conflicting outer
// strategy fields, bad plans and the retired per-strategy shard shape
// are refused.
func TestShardJob(t *testing.T) {
	leakCheck(t)
	s := New(Config{QueueSize: 4, Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tg, err := explore.TargetByName("case:SO-17894000")
	if err != nil {
		t.Fatal(err)
	}
	full, err := explore.Run(context.Background(), tg, explore.WithRuns(8), explore.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}

	const plans = `[{"walk":"random","seed":7},{"walk":"random","seed":8},{"walk":"random","seed":9},{"walk":"random","seed":10}]`
	code, v := postJob(t, ts, `{"target":"case:SO-17894000","shard":{"version":2,"start":4,"plans":`+plans+`}}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST shard job: status %d", code)
	}
	waitStatus(t, ts, v.ID, statusDone)
	var res explore.Result
	if code := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("GET shard result: %d", code)
	}
	if len(res.Runs) != 4 {
		t.Fatalf("shard result has %d runs, want 4", len(res.Runs))
	}
	for j, got := range res.Runs {
		want := full.Runs[4+j]
		if got.Token != want.Token || got.Fingerprint != want.Fingerprint {
			t.Errorf("shard run %d: token/fp = %q/%q, want global run %d's %q/%q",
				j, got.Token, got.Fingerprint, 4+j, want.Token, want.Fingerprint)
		}
		if len(got.Domains) == 0 || len(got.Domains) != len(got.Independent) {
			t.Errorf("shard run %d: domains/independent = %d/%d", j, len(got.Domains), len(got.Independent))
		}
	}

	one := `{"version":2,"start":0,"plans":[{"walk":"random"}]}`
	for _, body := range []string{
		`{"target":"case:SO-17894000","strategy":"random","shard":` + one + `}`,
		`{"target":"case:SO-17894000","seed":7,"shard":` + one + `}`,
		`{"target":"case:SO-17894000","runs":5,"shard":` + one + `}`,
		`{"target":"case:SO-17894000","shard":{"version":2,"start":0,"plans":[{"walk":"delay","seed":1}]}}`,
		`{"target":"case:SO-17894000","feedback":true,"shard":` + one + `}`,
	} {
		if code, _ := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, code)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"target":"case:SO-17894000","shard":{"strategy":"random","start":0,"runs":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
		Field string `json:"field"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || body.Field == "" || !strings.Contains(body.Error, body.Field) {
		t.Errorf("retired shard shape: status %d, body %+v, want 400 naming the unknown field", resp.StatusCode, body)
	}
}

// TestShardVersionRefused: a shard without the current version — the
// body a coordinator from before versioned shards sends, or one from
// another generator and fingerprint format — is refused with a 400
// naming the field, before anything runs.
func TestShardVersionRefused(t *testing.T) {
	s := New(Config{QueueSize: 2, Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const plans = `"start":4,"plans":[{"walk":"random","seed":7},{"walk":"random","seed":8}]`
	for _, body := range []string{
		`{"target":"case:SO-17894000","shard":{` + plans + `}}`,
		`{"target":"case:SO-17894000","shard":{"version":1,` + plans + `}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var refusal struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&refusal)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(refusal.Error, `"version"`) {
			t.Errorf("POST %s: status %d, error %q, want 400 naming the version field", body, resp.StatusCode, refusal.Error)
		}
	}
}

// TestHealthzJobCounts: /healthz exposes queued/running/finished job
// counts — the fleet coordinator's liveness and capacity probe.
func TestHealthzJobCounts(t *testing.T) {
	leakCheck(t)
	s := New(Config{QueueSize: 4, Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, v := postJob(t, ts, `{"target":"case:SO-17894000","runs":2}`)
	waitStatus(t, ts, v.ID, statusDone)

	var health struct {
		Status   string           `json:"status"`
		Queued   int              `json:"queued"`
		Running  int              `json:"running"`
		Finished int64            `json:"finished"`
		Jobs     map[string]int64 `json:"jobs"`
		Workers  int              `json:"workers"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("GET /healthz: %d", code)
	}
	if health.Finished != 1 || health.Jobs["done"] != 1 {
		t.Errorf("healthz finished counts: %+v", health)
	}
	if health.Workers != 1 || health.Queued != 0 || health.Running != 0 {
		t.Errorf("healthz pool counts: %+v", health)
	}
}

// jobBodies are the POST /v1/jobs bodies the tests above send, accepted
// and refused alike, plus the body the benchmark's serve workload sends
// and a fleet coordinator's shard body.
var jobBodies = []string{
	`{"target":"case:SO-17894000","runs":8,"seed":3}`,
	`{"target":"case:fig4","runs":4,"seed":1,"chains":true}`,
	`{"target":"case:SO-17894000","runs":6,"seed":1}`,
	`{"target":"spin","runs":2}`,
	`{"target":"spin","runs":2,"timeoutMs":100}`,
	`{"target":"case:SO-17894000","runs":4}`,
	`{"target":"case:SO-17894000"}`,
	`{"target":"panic","runs":2}`,
	`{"target":"panic","runs":4,"workers":4}`,
	`{"target":"case:SO-17894000","runs":2}`,
	`not json`,
	`{"target":""}`,
	`{"target":"case:no-such-case"}`,
	`{"target":"case:SO-17894000","strategy":"bogus"}`,
	`{"target":"case:SO-17894000","kinds":"bogus-kind"}`,
	`{"target":"case:SO-17894000","runs":-1}`,
	`{"target":"case:SO-17894000","runs":1,"workers":100000000}`,
	`{"target":"case:SO-17894000","runs":1,"workers":-1}`,
	`{"target":"x","runs":3,"workers":1}`,
	`{"target":"case:SO-17894000","shardSeed":9}`,
	`{"target":"case:SO-17894000","shard":{"version":2,"start":4,"plans":[{"walk":"random","seed":7},{"walk":"random","seed":8},{"walk":"random","seed":9},{"walk":"random","seed":10}]}}`,
	`{"target":"case:SO-17894000","strategy":"random","shard":{"version":2,"start":0,"plans":[{"walk":"random"}]}}`,
	`{"target":"case:SO-17894000","seed":7,"shard":{"version":2,"start":0,"plans":[{"walk":"random"}]}}`,
	`{"target":"case:SO-17894000","runs":5,"shard":{"version":2,"start":0,"plans":[{"walk":"random"}]}}`,
	`{"target":"case:SO-17894000","shard":{"version":2,"start":0,"plans":[{"walk":"delay","seed":1}]}}`,
	`{"target":"case:SO-17894000","feedback":true,"shard":{"version":2,"start":0,"plans":[{"walk":"random"}]}}`,
	`{"target":"case:SO-17894000","shard":{"strategy":"random","start":0,"runs":2}}`,
	`{"target":"case:SO-17894000","shard":{"start":4,"plans":[{"walk":"random","seed":7},{"walk":"random","seed":8}]}}`,
	`{"target":"case:SO-17894000","shard":{"version":1,"start":4,"plans":[{"walk":"random","seed":7},{"walk":"random","seed":8}]}}`,
	`{"target":"case:SO-38140113","runs":64,"workers":2,"chains":true}`,
	`{"target":"case:SO-17894000","kinds":"io-order,latency","noMetrics":true,"shard":{"version":2,"start":3,"plans":[{"walk":"exhaustive","picks":[0,1]},{"walk":"coverage","seed":12,"corpus":2,"picks":[1]}]}}`,
}

// FuzzJobSpec drives the job decoder — JSON decoding into jobSpec and
// its embedded explore.Spec, then buildJob — with arbitrary bodies.
// Every body must come out as an accepted job or a 4xx refusal; none
// may panic or answer 5xx.
func FuzzJobSpec(f *testing.F) {
	for _, body := range jobBodies {
		f.Add([]byte(body))
	}
	s := New(Config{QueueSize: 1, Workers: 1})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		j := s.parseJob(rec, bytes.NewReader(body))
		if j == nil {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("refused body %q answered %d, want a 4xx", body, rec.Code)
			}
			return
		}
		j.cancel()
		if rec.Body.Len() != 0 {
			t.Fatalf("accepted body %q also wrote a response: %s", body, rec.Body.Bytes())
		}
	})
}
