// Package server is the asyncg analysis service: a long-running HTTP
// front end over the schedule-space exploration engine. Clients submit
// explore jobs (POST /v1/jobs), follow per-run NDJSON progress
// (GET /v1/jobs/{id}/stream — the same line format the CLI's -ndjson
// flag writes), and fetch the final classification
// (GET /v1/jobs/{id}/result).
//
// Jobs execute on a fixed worker pool behind a bounded queue; overflow
// is refused immediately with 429 and a Retry-After hint rather than
// buffered without limit. Every job runs under a context derived from
// the server's base context plus a per-job deadline, so DELETE, client
// disconnects (?wait=1), deadlines, and shutdown all cancel through the
// same path — down to the tick boundaries of the simulated event loops.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"asyncg/internal/explore"
	"asyncg/internal/trace"
)

// Config parameterizes the analysis service.
type Config struct {
	// QueueSize bounds the jobs waiting for a worker; a submission that
	// finds the queue full is refused with 429 + Retry-After. 0 means 8.
	QueueSize int
	// Workers is the number of jobs executed concurrently (each job
	// additionally fans its schedules out per its own spec). 0 means
	// GOMAXPROCS.
	Workers int
	// JobTimeout is the default per-job deadline, and the cap for
	// per-request timeoutMs overrides. 0 means 2 minutes.
	JobTimeout time.Duration
	// MaxFinishedJobs bounds how many terminal jobs (done, cancelled,
	// failed) stay queryable, so a long-running service does not retain
	// every result and stream buffer forever. When a job finishes past
	// the bound, the oldest terminal jobs are evicted — their Result and
	// buffered NDJSON are dropped and later GETs answer 404. Queued and
	// running jobs are never evicted. 0 means 64; negative means
	// unlimited retention.
	MaxFinishedJobs int
	// LookupTarget resolves a job's target spec; nil means
	// explore.TargetByName. Tests inject synthetic (e.g. never-ending)
	// targets here.
	LookupTarget func(string) (explore.Target, error)
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 8
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.MaxFinishedJobs == 0 {
		c.MaxFinishedJobs = 64
	}
	if c.LookupTarget == nil {
		c.LookupTarget = explore.TargetByName
	}
	return c
}

// Server owns the worker pool, the job table, and the HTTP handlers.
// Create with New, serve Handler(), stop with Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// baseCtx parents every job context; baseCancel is the hard-stop.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup // worker goroutines

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for stable GET /v1/jobs
	nextID   int
	draining bool
	running  int

	metrics serverMetrics
}

// serverMetrics aggregates across jobs: submission counters plus the
// merged trace snapshot of every metrics-enabled run (the Fig. 6b
// observability surface, accumulated service-wide).
type serverMetrics struct {
	mu        sync.Mutex
	accepted  int64
	rejected  int64
	done      int64
	cancelled int64
	failed    int64
	runs      int64
	// Coverage feedback accumulated across jobs: distinct async-graph
	// fingerprints discovered, final corpus sizes of coverage-strategy
	// jobs, and picks pruned by partial-order reduction.
	newGraphs   int64
	corpusSize  int64
	prunedPicks int64
	snap        trace.Snapshot
}

// New builds the service and starts its worker pool. The pool idles
// until jobs arrive; Shutdown stops it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *job, cfg.QueueSize),
		jobs:       make(map[string]*job),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/targets", s.handleTargets)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler is the service's HTTP interface.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the service: no new submissions are accepted (POST
// returns 503), queued and running jobs are allowed to finish, and the
// call returns when the pool is idle. If ctx expires first, every
// outstanding job is hard-cancelled (they stop at their next simulated
// tick boundary), the pool is still waited for — workers are never
// abandoned — and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-idle
		return ctx.Err()
	}
}

// worker executes queued jobs until the queue is closed and empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job under its deadline, streaming NDJSON into the
// job's broadcaster. A panicking target fails the job, never the
// worker.
func (s *Server) runJob(j *job) {
	defer close(j.done)
	defer j.stream.Close()
	defer j.cancel()

	if err := j.ctx.Err(); err != nil {
		// Cancelled while queued (DELETE or hard-stop): nothing ran.
		j.finish(nil, err, time.Now())
		s.metrics.record(j)
		s.evictFinished()
		return
	}
	ctx := j.ctx
	if j.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
		defer cancel()
	}

	j.mu.Lock()
	j.status = statusRunning
	j.started = time.Now()
	j.mu.Unlock()
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}()

	stream := explore.NewNDJSONStream(j.stream, j.target.Name)
	opts := append(j.opts, explore.WithProgress(func(rr explore.RunResult) {
		stream.Run(rr) // broadcaster writes cannot fail while the job runs
	}))

	// The engine recovers target panics itself (on every worker of its
	// schedule pool) and returns them as errors; this recover is pure
	// defense in depth for panics outside the run boundary (aggregation,
	// the progress callback), keeping the service worker alive no matter
	// what.
	res, err := func() (res *explore.Result, err error) {
		defer func() {
			if p := recover(); p != nil {
				res, err = nil, fmt.Errorf("target panicked: %v", p)
			}
		}()
		return explore.Run(ctx, j.target, opts...)
	}()
	if res != nil {
		// Classification of the completed prefix flushes even when the
		// job was cancelled — the stream never ends mid-thought.
		stream.Finish(res)
	}
	j.finish(res, err, time.Now())
	s.metrics.record(j)
	s.evictFinished()
}

// evictFinished trims the job table to the retention bound: when more
// than MaxFinishedJobs terminal jobs are held, the oldest are deleted
// (their broadcaster buffers and Results go with them). Called after
// every terminal transition, so the table's footprint is bounded by
// queue capacity + workers + MaxFinishedJobs.
func (s *Server) evictFinished() {
	limit := s.cfg.MaxFinishedJobs
	if limit < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	terminal := 0
	for _, id := range s.order {
		if s.jobs[id].terminal() {
			terminal++
		}
	}
	evict := terminal - limit
	if evict <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if evict > 0 && s.jobs[id].terminal() {
			delete(s.jobs, id)
			evict--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// record folds a finished job into the service-wide aggregates.
func (m *serverMetrics) record(j *job) {
	j.mu.Lock()
	status, res := j.status, j.result
	j.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	switch status {
	case statusDone:
		m.done++
	case statusCancelled:
		m.cancelled++
	case statusFailed:
		m.failed++
	}
	if res != nil {
		m.runs += int64(len(res.Runs))
		m.newGraphs += int64(res.NewGraphs)
		m.corpusSize += int64(res.CorpusSize)
		m.prunedPicks += int64(res.PrunedPicks)
		m.snap.Merge(res.Metrics)
	}
}

// buildJob validates a spec and resolves it into a runnable job.
func (s *Server) buildJob(spec jobSpec) (*job, error) {
	if spec.Workers < 0 || spec.Workers > maxJobWorkers {
		return nil, fmt.Errorf("server: workers %d outside 0..%d", spec.Workers, maxJobWorkers)
	}
	tg, err := s.cfg.LookupTarget(spec.Target)
	if err != nil {
		return nil, err
	}
	if spec.Shard != nil {
		// A shard job's walk is fully determined by the shard's plans;
		// outer strategy parameters would silently disagree with them, so
		// their presence is an error, not a tiebreak.
		if spec.Strategy != "" || spec.Seed != 0 || spec.DelayBound != 0 || spec.POR {
			return nil, fmt.Errorf("server: shard jobs take their walk from the shard's plans; leave strategy/seed/delayBound/por unset")
		}
		if spec.Runs != 0 && spec.Runs != len(spec.Shard.Plans) {
			return nil, fmt.Errorf("server: runs %d conflicts with shard window of %d runs", spec.Runs, len(spec.Shard.Plans))
		}
		spec.Runs = len(spec.Shard.Plans)
	}
	_, opts, err := spec.Options()
	if err != nil {
		return nil, err
	}
	if spec.Shard != nil {
		strat, err := explore.ShardStrategy(*spec.Shard)
		if err != nil {
			return nil, err
		}
		// The shard's plans replace the spec's strategy, and the
		// coordinator rebuilds each run's strategy feedback from the
		// record WithRunFeedback adds to its run line.
		opts = append(opts, explore.WithStrategy(strat), explore.WithRunFeedback())
	}
	opts = append(opts, explore.WithWorkers(spec.Workers))
	if !spec.NoMetrics {
		opts = append(opts, explore.WithRunMetrics())
	}
	timeout := s.cfg.JobTimeout
	if spec.TimeoutMs > 0 {
		if t := time.Duration(spec.TimeoutMs) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	return &job{
		target:  tg,
		opts:    opts,
		timeout: timeout,
		ctx:     ctx,
		cancel:  cancel,
		stream:  newBroadcaster(),
		done:    make(chan struct{}),
		status:  statusQueued,
		created: time.Now(),
	}, nil
}

// handleSubmit is POST /v1/jobs: validate, enqueue (or refuse), and
// either return 202 immediately or, with ?wait=1, block until the job
// finishes — cancelling it if the client disconnects first.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	j := s.parseJob(w, r.Body)
	if j == nil {
		return
	}

	// Admission happens under the lock so drain (close(queue)) cannot
	// race the send; the send itself never blocks — a full buffered
	// channel is the 429 path, not a wait. The 202 view is taken before
	// the send: once the job is on the queue a pool worker may already
	// be running it, or even have finished it.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		j.cancel()
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.nextID++
	j.id = "job-" + strconv.Itoa(s.nextID)
	accepted := j.snapshotView(false)
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.mu.Unlock()
	default:
		s.nextID--
		j.id = ""
		s.mu.Unlock()
		j.cancel()
		s.metrics.mu.Lock()
		s.metrics.rejected++
		s.metrics.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "job queue is full")
		return
	}
	s.metrics.mu.Lock()
	s.metrics.accepted++
	s.metrics.mu.Unlock()

	if r.URL.Query().Get("wait") != "" {
		// Synchronous mode: the client's connection owns the job.
		select {
		case <-j.done:
			writeJSON(w, http.StatusOK, j.snapshotView(true))
		case <-r.Context().Done():
			j.cancel()
			<-j.done // the worker observes the cancel at the next tick boundary
		}
		return
	}
	writeJSON(w, http.StatusAccepted, accepted)
}

// parseJob decodes and validates a POST /v1/jobs body into a runnable
// job. A refused body gets its 400 written to w, and parseJob returns
// nil.
func (s *Server) parseJob(w http.ResponseWriter, body io.Reader) *job {
	var spec jobSpec
	dec := json.NewDecoder(body)
	// Unknown fields are refused, and the offending field is named in the
	// response body: a version-skewed fleet coordinator must fail fast,
	// not silently run a default-configured job.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		if field, ok := unknownFieldOf(err); ok {
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error": fmt.Sprintf("invalid job spec: unknown field %q", field),
				"field": field,
			})
			return nil
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid job spec: %v", err))
		return nil
	}
	j, err := s.buildJob(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil
	}
	return j
}

// handleList is GET /v1/jobs: every job in submission order, without
// embedded results.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]view, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].snapshotView(false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
	}
	return j
}

// handleJob is GET /v1/jobs/{id}: full status, with the result embedded
// once the job has finished.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.snapshotView(j.terminal()))
	}
}

// handleCancel is DELETE /v1/jobs/{id}: cancel a queued or running job
// (idempotent). The response reports the status at the time of the
// call; cancellation completes asynchronously at the job's next tick
// boundary.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.snapshotView(false))
}

// handleStream is GET /v1/jobs/{id}/stream: the job's NDJSON, replayed
// from the first line and followed live until the job finishes or the
// client disconnects. The line format is exactly the CLI's -ndjson
// output (explore-run / explore-warning / explore-summary).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	flush()
	j.stream.subscribe(r.Context(), w, flush)
}

// handleResult is GET /v1/jobs/{id}/result: the bare explore.Result
// JSON. Done jobs return their full result; cancelled jobs return the
// completed-prefix partial result; queued/running jobs get 409 and
// failed jobs 500 with the failure message.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	status, res, errMsg := j.status, j.result, j.errMsg
	j.mu.Unlock()
	switch {
	// Failed wins over a partial result: the engine returns the
	// completed-run prefix even on a panic, but a failed job's result
	// endpoint reports the failure, not a fragment that looks complete.
	case status == statusFailed:
		httpError(w, http.StatusInternalServerError, "job failed: "+errMsg)
	case res != nil:
		writeJSON(w, http.StatusOK, res)
	case status == statusCancelled:
		httpError(w, http.StatusInternalServerError, "job cancelled: "+errMsg)
	default:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusConflict, "job is "+string(status)+"; result not ready")
	}
}

// handleTargets is GET /v1/targets: the shared explore registry, the
// same names POST /v1/jobs accepts.
func (s *Server) handleTargets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"targets": explore.Targets()})
}

// handleHealthz reports liveness plus queue pressure and lifetime job
// counts, for load balancers and smoke scripts. A draining server
// answers 503 so routers stop sending it work.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining, running := s.draining, s.running
	queued := len(s.queue)
	s.mu.Unlock()
	s.metrics.mu.Lock()
	done, cancelled, failed := s.metrics.done, s.metrics.cancelled, s.metrics.failed
	s.metrics.mu.Unlock()
	status, code := "ok", http.StatusOK
	if draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"queued":   queued,
		"running":  running,
		"finished": done + cancelled + failed,
		"jobs": map[string]int64{
			"done":      done,
			"cancelled": cancelled,
			"failed":    failed,
		},
		"capacity": s.cfg.QueueSize,
		"workers":  s.cfg.Workers,
	})
}

// handleMetrics is GET /metrics: job counters plus the merged
// trace.Snapshot of every metrics-enabled run the service executed —
// the paper's Fig. 6(b) observability surface, accumulated server-wide.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The snapshot holds maps the workers keep merging into, so it is
	// serialized under the metrics lock rather than copied out.
	s.metrics.mu.Lock()
	snapJSON, err := json.Marshal(&s.metrics.snap)
	payload := map[string]any{
		"jobs": map[string]int64{
			"accepted":  s.metrics.accepted,
			"rejected":  s.metrics.rejected,
			"done":      s.metrics.done,
			"cancelled": s.metrics.cancelled,
			"failed":    s.metrics.failed,
		},
		"runsExplored": s.metrics.runs,
		"coverage": map[string]int64{
			"newGraphs":   s.metrics.newGraphs,
			"corpusSize":  s.metrics.corpusSize,
			"prunedPicks": s.metrics.prunedPicks,
		},
	}
	s.metrics.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	payload["explore"] = json.RawMessage(snapJSON)
	writeJSON(w, http.StatusOK, payload)
}

// writeJSON encodes v into a buffer before touching the response, so a
// marshal failure can still produce a proper 500 instead of a silently
// truncated body under an already-written success status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("server: encoding %d response: %v", code, err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintln(w, `{"error":"internal: response encoding failed"}`)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := buf.WriteTo(w); err != nil {
		// The status line is already on the wire; a short write means the
		// client went away, which is only worth a log line.
		log.Printf("server: writing %d response: %v", code, err)
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg})
}

// unknownFieldOf recovers the field name from encoding/json's
// DisallowUnknownFields error ('json: unknown field "xyz"'); the stdlib
// exposes no typed error for it.
func unknownFieldOf(err error) (string, bool) {
	const prefix = `json: unknown field "`
	msg := err.Error()
	if len(msg) > len(prefix)+1 && msg[:len(prefix)] == prefix && msg[len(msg)-1] == '"' {
		return msg[len(prefix) : len(msg)-1], true
	}
	return "", false
}
