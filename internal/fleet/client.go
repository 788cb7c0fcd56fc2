package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"asyncg/internal/explore"
	"asyncg/internal/trace"
)

// client talks to one asyncg serve worker over its jobs API. Control
// requests (submit, cancel) run under a per-request timeout; the NDJSON stream read runs under the caller's context only,
// since a healthy shard legitimately takes as long as its runs do.
type client struct {
	base    string // worker base URL, no trailing slash
	http    *http.Client
	timeout time.Duration // per control request
}

func newClient(base string, timeout time.Duration) *client {
	return &client{base: strings.TrimRight(base, "/"), http: &http.Client{}, timeout: timeout}
}

// idleWorkers hands out the workers that have no shard in flight, one
// shard per worker entry.
type idleWorkers struct {
	all   int // worker entries, idle or not
	mu    sync.Mutex
	idle  []*client
	freed chan struct{} // closed and replaced whenever a worker comes back
}

// take waits for an idle worker outside avoid, in the order workers
// became idle; once avoid holds every worker, any idle one will do.
func (w *idleWorkers) take(ctx context.Context, avoid map[*client]bool) (*client, error) {
	for {
		w.mu.Lock()
		for i, cl := range w.idle {
			if !avoid[cl] || len(avoid) >= w.all {
				w.idle = append(w.idle[:i], w.idle[i+1:]...)
				w.mu.Unlock()
				return cl, nil
			}
		}
		freed := w.freed
		w.mu.Unlock()
		select {
		case <-freed:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// put returns a worker taken with take.
func (w *idleWorkers) put(cl *client) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.idle = append(w.idle, cl)
	close(w.freed)
	w.freed = make(chan struct{})
}

// busyError is a 429 refusal; RetryAfter carries the worker's hint.
type busyError struct {
	retryAfter time.Duration
}

func (e *busyError) Error() string {
	return fmt.Sprintf("worker busy (retry after %s)", e.retryAfter)
}

// permanentError marks refusals that retrying cannot fix (a 400 means
// the job spec itself is wrong — version skew, bad shard).
type permanentError struct {
	err error
}

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// jobRequest is the wire shape of a shard submission — a strict subset
// of the server's jobSpec (the server rejects unknown fields, so this
// struct is the compatibility contract).
type jobRequest struct {
	Target    string             `json:"target"`
	Kinds     string             `json:"kinds,omitempty"`
	NoMetrics bool               `json:"noMetrics,omitempty"`
	Shard     *explore.ShardSpec `json:"shard"`
}

// jobRef is the slice of the submission response the client needs.
type jobRef struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// submit POSTs the shard job and returns its id. A full queue surfaces
// as *busyError with the worker's Retry-After hint; a 400 as
// *permanentError.
func (c *client) submit(ctx context.Context, jr jobRequest) (string, error) {
	body, err := json.Marshal(jr)
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusAccepted:
		var ref jobRef
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&ref); err != nil {
			return "", fmt.Errorf("fleet: %s: bad submit response: %v", c.base, err)
		}
		if ref.ID == "" {
			return "", fmt.Errorf("fleet: %s: submit response without job id", c.base)
		}
		return ref.ID, nil
	case http.StatusTooManyRequests:
		retry := time.Second
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
				retry = time.Duration(secs) * time.Second
			}
		}
		return "", &busyError{retryAfter: retry}
	case http.StatusBadRequest:
		return "", &permanentError{err: fmt.Errorf("fleet: %s rejected the shard: %s", c.base, readError(resp.Body))}
	default:
		return "", fmt.Errorf("fleet: %s: submit status %d: %s", c.base, resp.StatusCode, readError(resp.Body))
	}
}

// cancel best-effort DELETEs a job whose stream the coordinator gave up
// on, so a reassigned shard does not keep burning the old worker.
func (c *client) cancel(jobID string) {
	ctx, cancelCtx := context.WithTimeout(context.Background(), c.timeout)
	defer cancelCtx()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/jobs/"+jobID, nil)
	if err != nil {
		return
	}
	if resp, err := c.http.Do(req); err == nil {
		drainClose(resp.Body)
	}
}

// shardOutput is one completed shard as reported by its worker: the
// locally-indexed run records and the shard's merged metrics snapshot.
type shardOutput struct {
	Runs    []explore.RunResult
	Metrics *trace.Snapshot
}

// addRun appends the shard's next run line if it passes the checks a
// run line gets whether it is streamed or read back from the journal:
// locally indexed in order, and a well-formed recording (see
// explore.RunResult.Feedback).
func (o *shardOutput) addRun(rr explore.RunResult) error {
	if rr.Index != len(o.Runs) {
		return fmt.Errorf("run index %d out of order (want %d)", rr.Index, len(o.Runs))
	}
	if _, err := rr.Feedback(); err != nil {
		return fmt.Errorf("bad run line: %v", err)
	}
	o.Runs = append(o.Runs, rr)
	return nil
}

// wireLine decodes any stream line: kind discriminates, run fields
// arrive through the embedded RunResult, and summary lines additionally
// carry the run count and merged metrics.
type wireLine struct {
	Kind string `json:"kind"`
	explore.RunResult
	SummaryRuns int             `json:"runs"`
	Metrics     *trace.Snapshot `json:"metrics"`
}

// stream follows the job's NDJSON to completion and validates the
// shard's shape: exactly one run line per plan, each passing addRun,
// closed by an explore-summary. A stream that ends early (worker died,
// job failed or was cancelled) or carries a bad line is an error — the
// caller reassigns, and nothing reaches the journal.
func (c *client) stream(ctx context.Context, jobID string, spec explore.ShardSpec) (*shardOutput, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+jobID+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: %s: stream status %d: %s", c.base, resp.StatusCode, readError(resp.Body))
	}
	out := &shardOutput{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	summarySeen := false
	for sc.Scan() {
		var line wireLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("fleet: %s: bad stream line: %v", c.base, err)
		}
		switch line.Kind {
		case explore.KindRun:
			if err := out.addRun(line.RunResult); err != nil {
				return nil, fmt.Errorf("fleet: %s: %v", c.base, err)
			}
		case explore.KindSummary:
			summarySeen = true
			out.Metrics = line.Metrics
			if line.SummaryRuns != len(spec.Plans) {
				return nil, fmt.Errorf("fleet: %s: shard finished with %d/%d runs (job %s)", c.base, line.SummaryRuns, len(spec.Plans), jobID)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fleet: %s: stream broke mid-shard: %v", c.base, err)
	}
	if !summarySeen {
		return nil, fmt.Errorf("fleet: %s: stream ended without a summary (job %s)", c.base, jobID)
	}
	if len(out.Runs) != len(spec.Plans) {
		return nil, fmt.Errorf("fleet: %s: got %d run lines, want %d (job %s)", c.base, len(out.Runs), len(spec.Plans), jobID)
	}
	return out, nil
}

// runShard is the per-attempt unit: submit, then stream. A worker that
// cannot take the shard fails the submit (a draining server answers
// 503, a dead one refuses the connection), and the attempt is retried
// like any other. On a stream failure the job is cancelled best-effort
// before the error is returned for reassignment.
func (c *client) runShard(ctx context.Context, jr jobRequest) (*shardOutput, error) {
	jobID, err := c.submit(ctx, jr)
	if err != nil {
		return nil, err
	}
	out, err := c.stream(ctx, jobID, *jr.Shard)
	if err != nil {
		c.cancel(jobID)
		return nil, err
	}
	return out, nil
}

// backoffDelay is the capped exponential schedule for attempt n
// (0-based): base<<n, clamped to cap. A busyError's Retry-After hint
// overrides the schedule when it is longer.
func backoffDelay(n int, base, cap time.Duration, err error) time.Duration {
	d := base << uint(n)
	if d > cap || d <= 0 {
		d = cap
	}
	var busy *busyError
	if errors.As(err, &busy) && busy.retryAfter > d {
		d = busy.retryAfter
	}
	return d
}

// readError extracts the service's {"error": ...} body, falling back to
// the raw text.
func readError(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 1<<16))
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &body) == nil && body.Error != "" {
		return body.Error
	}
	return strings.TrimSpace(string(b))
}

// drainClose releases the connection for reuse.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}
