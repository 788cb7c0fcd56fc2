package server

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"time"

	"asyncg/internal/explore"
)

// jobStatus is the lifecycle state of a submitted analysis job.
type jobStatus string

// Job lifecycle: queued → running → one of {done, cancelled, failed}.
// A queued job can jump straight to cancelled (DELETE before a worker
// picks it up, or a hard-stop during drain).
const (
	statusQueued    jobStatus = "queued"
	statusRunning   jobStatus = "running"
	statusDone      jobStatus = "done"
	statusCancelled jobStatus = "cancelled"
	statusFailed    jobStatus = "failed"
)

// maxJobWorkers bounds a job's workers field. A job's pool starts its
// workers before it plans a run, so an unbounded count would cost a
// goroutine each whatever the job asks for.
const maxJobWorkers = 256

// jobSpec is the POST /v1/jobs request body: the exploration's
// explore.Spec (target, strategy, runs, seed, kinds, delayBound, por,
// chains, debugStacks) plus how this service runs it. Zero values defer
// to the explore package defaults (32 runs, random strategy, GOMAXPROCS
// workers), mirroring the asyncg explore flags. Fleet shard jobs leave
// chains unset — the coordinator attaches chains once, after the merge.
type jobSpec struct {
	explore.Spec
	// Workers is the per-job schedule concurrency (0 = GOMAXPROCS, at
	// most maxJobWorkers); results are identical for any value.
	Workers int `json:"workers,omitempty"`
	// TimeoutMs overrides the server's default per-job deadline; capped
	// at the server default when that is set.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// NoMetrics opts this job out of per-run metrics aggregation (on by
	// default — the snapshots back GET /metrics).
	NoMetrics bool `json:"noMetrics,omitempty"`
	// Shard executes one contiguous slice of a larger exploration instead
	// of a standalone walk: the shard spec carries the global index of
	// its first run and one explore.RunPlan per run, as planned by the
	// fleet coordinator's strategy. Shard jobs take their walk from the
	// plans — the outer strategy, seed, delayBound and por fields must
	// stay unset — and runs, when given, must match the plan count.
	// Every shard run line carries its choice-point record (domains,
	// independent), from which the coordinator rebuilds the strategy's
	// feedback.
	Shard *explore.ShardSpec `json:"shard,omitempty"`
}

// job is one submitted exploration: the resolved target and options,
// the live NDJSON stream, and the terminal result.
type job struct {
	id      string
	target  explore.Target
	opts    []explore.Option
	timeout time.Duration

	// ctx is derived from the server's base context at submission, so a
	// queued job is cancellable (DELETE, hard-stop) before it runs.
	ctx    context.Context
	cancel context.CancelFunc

	stream *broadcaster
	done   chan struct{} // closed when the job reaches a terminal status

	mu       sync.Mutex
	status   jobStatus
	errMsg   string
	result   *explore.Result
	created  time.Time
	started  time.Time
	finished time.Time
}

// view is the JSON representation of a job in API responses.
type view struct {
	ID       string            `json:"id"`
	Target   string            `json:"target"`
	Status   jobStatus         `json:"status"`
	Error    string            `json:"error,omitempty"`
	Runs     int               `json:"runs,omitempty"`
	Created  time.Time         `json:"created"`
	Started  *time.Time        `json:"started,omitempty"`
	Finished *time.Time        `json:"finished,omitempty"`
	Links    map[string]string `json:"links"`
	Result   *explore.Result   `json:"result,omitempty"`
}

// snapshotView renders the job's current state; withResult embeds the
// full Result (single-job GETs only — list responses stay small).
func (j *job) snapshotView(withResult bool) view {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := view{
		ID:      j.id,
		Target:  j.target.Name,
		Status:  j.status,
		Error:   j.errMsg,
		Created: j.created,
		Links: map[string]string{
			"self":   "/v1/jobs/" + j.id,
			"stream": "/v1/jobs/" + j.id + "/stream",
			"result": "/v1/jobs/" + j.id + "/result",
		},
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.result != nil {
		v.Runs = len(j.result.Runs)
		if withResult {
			v.Result = j.result
		}
	}
	return v
}

// terminal reports whether the job has finished (in any way).
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == statusDone || j.status == statusCancelled || j.status == statusFailed
}

// finish records the terminal status derived from the exploration's
// error: nil → done, context errors → cancelled (the partial result is
// kept), anything else (including a recovered panic) → failed.
func (j *job) finish(res *explore.Result, err error, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.result = res
	j.finished = now
	switch {
	case err == nil:
		j.status = statusDone
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.status = statusCancelled
		j.errMsg = err.Error()
	default:
		j.status = statusFailed
		j.errMsg = err.Error()
	}
}

// errClosedStream guards against writes after the job finished; the
// engine never does this, so it is purely defensive.
var errClosedStream = errors.New("server: write to closed job stream")

// broadcaster is the in-memory NDJSON fan-out for one job: the engine
// writes complete lines (the explore stream flushes per line), and any
// number of HTTP subscribers replay the buffer from the top and then
// follow live until the stream closes or they disconnect.
type broadcaster struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	closed bool
	notify chan struct{} // closed and replaced on every write
}

func newBroadcaster() *broadcaster {
	return &broadcaster{notify: make(chan struct{})}
}

// Write appends one or more complete NDJSON lines and wakes subscribers.
func (b *broadcaster) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, errClosedStream
	}
	n, err := b.buf.Write(p)
	close(b.notify)
	b.notify = make(chan struct{})
	return n, err
}

// Close ends the stream; subscribers drain whatever is buffered and
// return. Idempotent.
func (b *broadcaster) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.closed = true
		close(b.notify)
		b.notify = make(chan struct{})
	}
}

// snapshot returns a copy of the bytes past off, whether the stream has
// closed, and a channel that signals the next write. The copy keeps
// subscribers independent of the writer's buffer growth.
func (b *broadcaster) snapshot(off int) (data []byte, closed bool, wait <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	all := b.buf.Bytes()
	if off < len(all) {
		data = append([]byte(nil), all[off:]...)
	}
	return data, b.closed, b.notify
}

// subscribe streams the job's NDJSON to w from the beginning, following
// live output until the stream closes or ctx (the client's request
// context) is done. flush is called after every chunk so lines reach
// slow consumers promptly.
func (b *broadcaster) subscribe(ctx context.Context, w interface{ Write([]byte) (int, error) }, flush func()) error {
	off := 0
	for {
		data, closed, wait := b.snapshot(off)
		if len(data) > 0 {
			if _, err := w.Write(data); err != nil {
				return err
			}
			if flush != nil {
				flush()
			}
			off += len(data)
			continue // re-snapshot: more may have arrived while writing
		}
		if closed {
			return nil
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
