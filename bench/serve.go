package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"asyncg/internal/casestudy"
	"asyncg/internal/explore"
	"asyncg/internal/server"
)

// The serve-table1 workload: the analysis service in process, behind a
// loopback HTTP listener, offered Table I case studies as an open loop.
const (
	serveRate  = 50 // jobs offered per second
	serveConns = 2  // client connections
	serveRuns  = 64 // schedules per job
	// serveWarmup is the warm-up job's target. It is fixed so that set-up
	// time does not depend on the seed.
	serveWarmup = "case:SO-38140113"
)

// serveEnv is one running service and its client.
type serveEnv struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	tracer atomic.Pointer[tracer] // wraps the targets of jobs submitted while set
}

func startServe() *serveEnv {
	e := &serveEnv{}
	e.srv = server.New(server.Config{Workers: 1, QueueSize: 8, LookupTarget: e.lookup})
	e.ts = httptest.NewServer(e.srv.Handler())
	e.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}
	return e
}

// lookup resolves a job's target as the service would by default, and
// wraps it while a traced phase runs.
func (e *serveEnv) lookup(spec string) (explore.Target, error) {
	t, err := explore.TargetByName(spec)
	if tr := e.tracer.Load(); tr != nil && err == nil {
		t = tr.target(t)
	}
	return t, err
}

// close stops the listener and then drains the service.
func (e *serveEnv) close() error {
	e.client.CloseIdleConnections()
	e.ts.Close()
	return e.srv.Shutdown(context.Background())
}

// jobSpec is the body of every submitted job; the seed is left at the
// service default (0), so a case's job is the same every time.
type jobSpec struct {
	Target  string `json:"target"`
	Runs    int    `json:"runs"`
	Workers int    `json:"workers"`
	Chains  bool   `json:"chains"`
}

// jobView is the part of the ?wait=1 response the benchmark reads.
type jobView struct {
	Status   string          `json:"status"`
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started"`
	Finished time.Time       `json:"finished"`
	Result   json.RawMessage `json:"result"`
}

// resultDigest is the part of an explore.Result the checks read.
type resultDigest struct {
	NewGraphs int `json:"newGraphs"`
	Runs      []struct {
		Token       string `json:"token"`
		Fingerprint string `json:"fingerprint"`
		Ticks       int    `json:"ticks"`
	} `json:"runs"`
	Categories []struct {
		Outcome  explore.Outcome `json:"outcome"`
		Expected bool            `json:"expected"`
	} `json:"categories"`
}

// served is one request of the open loop, reduced to what the checks and
// metrics read: holding a thousand Results would put the client's memory
// into peak_rss_mb.
type served struct {
	target                     string
	due, sent, done            time.Time
	code, size                 int
	status                     string
	created, started, finished time.Time
	schedules, graphs, ticks   int
	never                      bool              // an expected category classified never
	hash                       [sha256.Size]byte // of the compacted Result JSON
	recorded                   []scheduled       // the job's schedules, when asked to keep them
	err                        error
}

// submit posts one job and waits for its response; keep asks for the
// job's schedules to be kept.
func (e *serveEnv) submit(target string, due time.Time, keep bool) served {
	s := served{target: target, due: due, sent: time.Now()}
	body, err := json.Marshal(jobSpec{Target: target, Runs: serveRuns, Workers: workers, Chains: true})
	if err != nil {
		s.err = err
		return s
	}
	resp, err := e.client.Post(e.ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	s.code, s.size = resp.StatusCode, len(b)
	if err != nil {
		s.err = err
		return s
	}
	if s.code != http.StatusOK {
		return s
	}
	var view jobView
	var digest resultDigest
	if s.err = json.Unmarshal(b, &view); s.err != nil {
		return s
	}
	if s.err = json.Unmarshal(view.Result, &digest); s.err != nil {
		return s
	}
	var compact bytes.Buffer
	if s.err = json.Compact(&compact, view.Result); s.err != nil {
		return s
	}
	s.hash = sha256.Sum256(compact.Bytes())
	s.status, s.created, s.started, s.finished = view.Status, view.Created, view.Started, view.Finished
	s.schedules, s.graphs = len(digest.Runs), digest.NewGraphs
	for _, rr := range digest.Runs {
		s.ticks += rr.Ticks
		if keep {
			s.recorded = append(s.recorded, scheduled{target: target, token: rr.Token, fingerprint: rr.Fingerprint})
		}
	}
	for _, c := range digest.Categories {
		s.never = s.never || (c.Expected && c.Outcome == explore.OutcomeNever)
	}
	return s
}

// starvation is the Table I category whose programs run until their
// tick limit stops them; each such job costs several typical ones.
const starvation = "Recursive Micro Tasks"

// mix draws n job targets from the fourteen Table I cases. Each block of
// fourteen jobs holds every case once in a seeded order, except that the
// starvation cases take evenly spaced slots (0, 4 and 9): how much
// queueing a run sees then depends on the service, not on how often the
// seed happened to put two slow jobs back to back.
func mix(seed int64, n int) []string {
	var slow, fast []string
	for _, c := range casestudy.Table1() {
		if c.Category == starvation {
			slow = append(slow, "case:"+c.ID)
		} else {
			fast = append(fast, "case:"+c.ID)
		}
	}
	size := len(slow) + len(fast)
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n+size)
	for len(out) < n {
		s, f := rng.Perm(len(slow)), rng.Perm(len(fast))
		placed := 0 // slow jobs placed in this block
		for pos := 0; pos < size; pos++ {
			if placed < len(slow) && pos == placed*size/len(slow) {
				out = append(out, slow[s[placed]])
				placed++
			} else {
				out = append(out, fast[f[pos-placed]])
			}
		}
	}
	return out[:n]
}

// openLoop offers the jobs at serveRate, each from its own goroutine at
// its due time whatever the earlier ones are doing, and waits for every
// response.
func (e *serveEnv) openLoop(jobs []string, keep bool) []served {
	out := make([]served, len(jobs))
	interval := time.Second / serveRate
	var wg sync.WaitGroup
	start := time.Now()
	for i, target := range jobs {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, target string, due time.Time) {
			defer wg.Done()
			out[i] = e.submit(target, due, keep)
		}(i, target, due)
	}
	wg.Wait()
	return out
}

// directRun explores target exactly as a served job does, without the
// service.
func directRun(target string, tr *tracer, op int) ([sha256.Size]byte, error) {
	t, err := explore.TargetByName(target)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	strat := explore.NewRandom(0)
	if tr != nil {
		t, strat = tr.target(t), tr.strategy(strat)
		i := tr.begin(op)
		defer tr.end(i)
	}
	res, err := explore.Run(context.Background(), t,
		explore.WithRuns(serveRuns), explore.WithSeed(0), explore.WithStrategy(strat),
		explore.WithWorkers(workers), explore.WithRunMetrics(), explore.WithChains())
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	if tr != nil {
		tr.finalize(t, res)
	}
	b, err := json.Marshal(res)
	return sha256.Sum256(b), err
}

// servePhase is the open-loop outcome of one phase.
type servePhase struct {
	jobs      []served
	wall      time.Duration // first due time to last response
	schedules int
	graphs    int
	ticks     int
}

// phase runs the open loop for d; keep keeps every job's schedules.
func (e *serveEnv) phase(cfg runConfig, d time.Duration, keep bool) servePhase {
	n := max(1, int(d.Seconds()*serveRate))
	if cfg.maxOps > 0 {
		n = min(n, cfg.maxOps)
	}
	p := servePhase{jobs: e.openLoop(mix(cfg.seed, n), keep)}
	for _, s := range p.jobs {
		if end := s.done.Sub(p.jobs[0].due); end > p.wall {
			p.wall = end
		}
		p.schedules += s.schedules
		p.graphs += s.graphs
		p.ticks += s.ticks
	}
	return p
}

// check counts the failed jobs of a phase: errors, non-200 responses
// (429 included), jobs not done, an expected category that no schedule
// produced, and a Result that differs from a direct exploration of the
// same spec.
func (p servePhase) check(r *report, direct map[string][sha256.Size]byte) {
	for i, s := range p.jobs {
		r.Attempted++
		switch {
		case s.err != nil:
			r.fail("job %d (%s): %v", i, s.target, s.err)
		case s.code != http.StatusOK:
			r.fail("job %d (%s): HTTP %d", i, s.target, s.code)
		case s.status != "done":
			r.fail("job %d (%s): status %s", i, s.target, s.status)
		case s.hash != direct[s.target]:
			r.fail("job %d (%s): the served Result differs from a direct explore.Run", i, s.target)
		case s.never:
			r.fail("job %d (%s): an expected category classifies never", i, s.target)
		}
	}
}

// setServer records the service's own split of a phase, from the job
// timestamps in each response.
func (p servePhase) setServer(r *report) {
	var queue, run, httpMs, late, kb []float64
	var busy time.Duration
	rejected := 0
	for _, s := range p.jobs {
		late = append(late, ms(s.sent.Sub(s.due)))
		if s.code == http.StatusTooManyRequests {
			rejected++
		}
		if s.err != nil || s.code != http.StatusOK {
			continue
		}
		queue = append(queue, ms(s.started.Sub(s.created)))
		run = append(run, ms(s.finished.Sub(s.started)))
		busy += s.finished.Sub(s.started)
		httpMs = append(httpMs, ms(s.done.Sub(s.sent)-s.finished.Sub(s.created)))
		kb = append(kb, float64(s.size)/1024)
	}
	r.set("server.queue_wait_ms_p50", "ms", percentile(queue, 50))
	r.set("server.queue_wait_ms_p99", "ms", percentile(queue, 99))
	r.set("server.job_run_ms_p50", "ms", percentile(run, 50))
	r.set("server.job_run_ms_p99", "ms", percentile(run, 99))
	r.set("server.busy_ratio", "ratio", ratio(busy.Seconds(), p.wall.Seconds()))
	r.set("server.http_ms_p50", "ms", percentile(httpMs, 50))
	r.set("server.response_kb", "KiB", mean(kb))
	r.set("server.rejected_ratio", "ratio", ratio(float64(rejected), float64(len(p.jobs))))
	lateP99 := percentile(late, 99)
	r.set("gen.late_ms_p99", "ms", lateP99)
	if lateP99 > 1 {
		r.Notes = append(r.Notes, fmt.Sprintf("the generator ran %.3g ms late at p99 (over 1 ms): the offered rate was not met", lateP99))
	}
}

func (p servePhase) latencies() []float64 {
	var out []float64
	for _, s := range p.jobs {
		if s.err == nil {
			out = append(out, ms(s.done.Sub(s.due)))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func runServe(cfg runConfig) (*report, *tracer, error) {
	r := &report{}
	var setups []float64
	var e *serveEnv
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		e = startServe()
		if s := e.submit(serveWarmup, start, false); s.err != nil || s.code != http.StatusOK {
			e.close()
			return nil, nil, fmt.Errorf("warm-up job: HTTP %d: %v", s.code, s.err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()

	if !cfg.traced {
		p := e.phase(cfg, cfg.phase, false)
		p.check(r, directHashes(r, nil, p.jobs))
		p.setServer(r)
		setEndToEnd(r, float64(p.schedules), float64(p.graphs), p.wall, p.latencies(), setups)
		return r, nil, nil
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain := e.phase(cfg, cfg.phase/2, false)
	runtime.ReadMemStats(&after)
	tr := newTracer(spanLimit)
	e.tracer.Store(tr)
	traced := e.phase(cfg, cfg.phase/2, true)
	e.tracer.Store(nil)
	for i, s := range traced.jobs {
		if s.err != nil || s.code != http.StatusOK {
			continue
		}
		root := tr.add(span{Name: spanRequest, Start: tr.at(s.due), End: tr.at(s.done), Parent: -1, Op: i, Worker: -1})
		tr.add(span{Name: spanQueue, Start: tr.at(s.created), End: tr.at(s.started), Parent: root, Op: i, Worker: -1})
		tr.add(span{Name: spanJob, Start: tr.at(s.started), End: tr.at(s.finished), Parent: root, Op: i, Worker: -1})
	}
	tr.attribute()
	direct := directHashes(r, tr, append(plain.jobs, traced.jobs...))
	plain.check(r, direct)
	traced.check(r, direct)
	plain.setServer(r)

	recorded := newSampler(cfg.ablateN)
	for _, s := range traced.jobs {
		for _, rec := range s.recorded {
			recorded.offer(rec)
		}
	}
	ab, err := ablate(recorded.sample())
	if err != nil {
		return nil, nil, err
	}
	sum := tr.summarize()
	setLayers(r, layerInputs{
		sum:        sum,
		ab:         ab,
		plainRate:  ratio(float64(plain.schedules), plain.wall.Seconds()),
		tracedRate: ratio(float64(traced.schedules), traced.wall.Seconds()),
		allocs:     float64(after.Mallocs - before.Mallocs),
		bytes:      float64(after.TotalAlloc - before.TotalAlloc),
		schedules:  float64(plain.schedules),
		ticks:      float64(plain.ticks),
	})
	r.set("explore.replays_per_job", "count", ratio(float64(sum.count[spanReplay]), float64(sum.count[spanJob]+sum.count[spanOp])))
	return r, tr, nil
}

// directHashes explores every distinct target of jobs once, directly,
// and returns the hash of each Result. With a tracer each exploration is
// a traced op, which is where serve-table1's strategy timings come from.
func directHashes(r *report, tr *tracer, jobs []served) map[string][sha256.Size]byte {
	out := make(map[string][sha256.Size]byte)
	for _, s := range jobs {
		if _, ok := out[s.target]; ok {
			continue
		}
		h, err := directRun(s.target, tr, len(jobs)+len(out))
		if err != nil {
			r.fail("direct run of %s: %v", s.target, err)
		}
		out[s.target] = h
	}
	return out
}
