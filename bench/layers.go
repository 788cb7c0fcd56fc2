package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asyncg"
	"asyncg/internal/explore"
)

// This file is the traced pass: wrappers around the public layer
// boundaries (explore.Target and its Runners, explore.Strategy) record
// spans, and summarize turns the spans into per-layer metrics and a
// self-time table. Nothing here reaches inside a layer, so a traced
// exploration must produce the same Result as an untraced one; the
// workloads check that on op 0.

// Span names. An "op" is one explore.Run issued by the benchmark; a
// "server.job" is one served job, timed from its own timestamps.
const (
	spanOp       = "op"
	spanPlan     = "explore.plan"
	spanObserve  = "explore.observe"
	spanPlanWait = "explore.planwait"
	spanFinalize = "explore.finalize"
	spanReplay   = "explore.replay"
	spanRun      = "runner.run"
	spanReset    = "runner.reset"
	spanRequest  = "client.request"
	spanQueue    = "server.queue"
	spanJob      = "server.job"
)

// span is one timed call. Times are nanoseconds since the tracer's
// origin.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Op     int    `json:"op"`     // op or job id, -1 when unattributed
	Worker int    `json:"worker"` // runner instance of runner spans, else -1
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans. Spans recorded while an op is open become that
// op's children, and the op's spans are folded into the running totals
// when it ends; the rest wait, as roots, until attribute assigns them to
// the served job they ran in and summarize folds them. The first keep
// spans folded are also retained for the spans file, so memory stays
// bounded however long the pass runs.
type tracer struct {
	origin  time.Time
	keep    int
	workers atomic.Int64

	mu      sync.Mutex
	spans   []span // not yet folded
	open    int    // index of the open op span, -1 if none
	kept    []span
	dropped int
	totals  totals
}

func newTracer(keep int) *tracer {
	return &tracer{origin: time.Now(), keep: keep, open: -1, totals: newTotals()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// at converts a wall-clock timestamp (the server's job timestamps carry
// no monotonic reading) to tracer time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.origin.Round(0))) }

// record adds a finished call as a child of the open op, if any.
func (t *tracer) record(name string, start, end int64, worker int) {
	t.mu.Lock()
	s := span{Name: name, Start: start, End: end, Parent: t.open, Op: -1, Worker: worker}
	if t.open >= 0 {
		s.Op = t.spans[t.open].Op
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add appends a span with an explicit parent and returns its index.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// begin opens an op span; calls recorded until end become its children.
func (t *tracer) begin(op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: spanOp, Start: t.now(), Parent: -1, Op: op, Worker: -1})
	t.open = len(t.spans) - 1
	return t.open
}

// end closes the op span i and folds it, with its children, into the
// totals.
func (t *tracer) end(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = t.now()
	t.open = -1
	t.fold(i)
}

// fold adds the spans from index i on to the totals, retains them while
// the keep budget lasts, and drops them from the unfolded buffer. Parents
// of those spans must lie at i or later.
func (t *tracer) fold(i int) {
	group := t.spans[i:]
	t.totals.add(group, i)
	if len(t.kept)+len(group) <= t.keep {
		base := len(t.kept)
		for _, s := range group {
			if s.Parent >= 0 {
				s.Parent += base - i
			}
			t.kept = append(t.kept, s)
		}
	} else {
		t.dropped += len(group)
	}
	t.spans = t.spans[:i]
}

// attribute makes every unattributed runner or replay span a child of
// the served job whose [started, finished] interval contains it. The
// server runs one job at a time, so the intervals do not overlap.
func (t *tracer) attribute() {
	t.mu.Lock()
	defer t.mu.Unlock()
	var jobs []int
	for i, s := range t.spans {
		if s.Name == spanJob {
			jobs = append(jobs, i)
		}
	}
	sort.Slice(jobs, func(a, b int) bool { return t.spans[jobs[a]].Start < t.spans[jobs[b]].Start })
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent >= 0 || (s.Name != spanRun && s.Name != spanReset && s.Name != spanReplay) {
			continue
		}
		k := sort.Search(len(jobs), func(k int) bool { return t.spans[jobs[k]].Start > s.Start }) - 1
		if k >= 0 && s.End <= t.spans[jobs[k]].End {
			s.Parent, s.Op = jobs[k], t.spans[jobs[k]].Op
		}
	}
}

// target wraps a target so that every runner call and every fresh-runtime
// run (the replay path chains use) is recorded.
func (t *tracer) target(in explore.Target) explore.Target {
	out := in
	if in.Run != nil {
		out.Run = func(extra ...asyncg.Option) (*asyncg.Report, error) {
			start := t.now()
			rep, err := in.Run(extra...)
			t.record(spanReplay, start, t.now(), -1)
			return rep, err
		}
	}
	if in.NewRunner != nil {
		out.NewRunner = func() explore.Runner {
			return &tracedRunner{in: in.NewRunner(), t: t, id: int(t.workers.Add(1))}
		}
	}
	return out
}

// tracedRunner records one pool worker's Run and Reset calls.
type tracedRunner struct {
	in explore.Runner
	t  *tracer
	id int
}

func (r *tracedRunner) Run(extra ...asyncg.Option) (*asyncg.Report, error) {
	start := r.t.now()
	rep, err := r.in.Run(extra...)
	r.t.record(spanRun, start, r.t.now(), r.id)
	return rep, err
}

func (r *tracedRunner) Reset() {
	start := r.t.now()
	r.in.Reset()
	r.t.record(spanReset, start, r.t.now(), r.id)
}

// strategy wraps a strategy so that Plan and Observe calls are recorded,
// together with every interval during which a PlanWait answer held
// planning back.
func (t *tracer) strategy(in explore.Strategy) explore.Strategy {
	return &tracedStrategy{in: in, t: t, waitStart: -1}
}

// tracedStrategy forwards the optional SpaceReporter and CoverageReporter
// extensions with the zero answers the engine assumes when a strategy
// lacks them, so wrapping never changes a Result.
type tracedStrategy struct {
	in        explore.Strategy
	t         *tracer
	waitStart int64 // start of the pending PlanWait interval, -1 if none
}

func (s *tracedStrategy) Name() string { return s.in.Name() }

func (s *tracedStrategy) Plan(i int) (explore.PickFunc, explore.PlanState) {
	start := s.t.now()
	next, state := s.in.Plan(i)
	s.t.record(spanPlan, start, s.t.now(), -1)
	switch {
	case state == explore.PlanWait && s.waitStart < 0:
		s.waitStart = start
	case state != explore.PlanWait && s.waitStart >= 0:
		s.t.record(spanPlanWait, s.waitStart, start, -1)
		s.waitStart = -1
	}
	return next, state
}

func (s *tracedStrategy) Observe(fb explore.Feedback) {
	start := s.t.now()
	s.in.Observe(fb)
	s.t.record(spanObserve, start, s.t.now(), -1)
}

func (s *tracedStrategy) Exhausted() bool {
	if sr, ok := s.in.(explore.SpaceReporter); ok {
		return sr.Exhausted()
	}
	return false
}

func (s *tracedStrategy) CoverageStats() explore.CoverageStats {
	if cr, ok := s.in.(explore.CoverageReporter); ok {
		return cr.CoverageStats()
	}
	return explore.CoverageStats{}
}

// finalize times explore.Finalize on a copy of a finished Result (the
// copy shares Runs, which Finalize only reads).
func (t *tracer) finalize(target explore.Target, res *explore.Result) {
	cp := *res
	start := t.now()
	explore.Finalize(target, &cp)
	t.record(spanFinalize, start, t.now(), -1)
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// totals accumulates what the folded spans say about each layer.
type totals struct {
	count                map[string]int
	totalNs, selfNs      map[string]int64
	runUs                []float64 // every Runner.Run
	busy, capacity, gaps int64     // runner time, exploration wall × workers, time between runner calls
	schedules            int64
	planWait, opWall     int64
	setupUs              []float64 // first Run of each fresh runner minus its exploration's median Run
}

func newTotals() totals {
	return totals{count: make(map[string]int), totalNs: make(map[string]int64), selfNs: make(map[string]int64)}
}

// add folds a group of spans whose parent indices are offset by base.
func (tt *totals) add(group []span, base int) {
	children := make([][]int, len(group))
	for i, s := range group {
		if s.Parent >= 0 {
			children[s.Parent-base] = append(children[s.Parent-base], i)
		}
	}
	for i, s := range group {
		tt.count[s.Name]++
		tt.totalNs[s.Name] += s.dur()
		tt.selfNs[s.Name] += s.dur() - covered(group, s, children[i])
		switch s.Name {
		case spanRun:
			tt.runUs = append(tt.runUs, float64(s.dur())/1e3)
		case spanPlanWait:
			tt.planWait += s.dur()
		case spanOp:
			tt.opWall += s.dur()
		}
		if s.Name == spanOp || s.Name == spanJob {
			tt.exploration(group, s, children[i])
		}
	}
}

// exploration folds the worker calls of one explore.Run: an op of the
// benchmark's own, or a served job.
func (tt *totals) exploration(group []span, s span, kids []int) {
	tt.capacity += s.dur() * workers
	byWorker := make(map[int][]span)
	for _, k := range kids {
		c := group[k]
		if c.Name == spanRun || c.Name == spanReset {
			tt.busy += c.dur()
			byWorker[c.Worker] = append(byWorker[c.Worker], c)
		}
	}
	var firsts, rest []float64
	for _, calls := range byWorker {
		sort.Slice(calls, func(a, b int) bool { return calls[a].Start < calls[b].Start })
		first := true
		for k, c := range calls {
			if k > 0 {
				tt.gaps += max(0, c.Start-calls[k-1].End)
			}
			if c.Name != spanRun {
				continue
			}
			tt.schedules++
			if first {
				firsts = append(firsts, float64(c.dur())/1e3)
				first = false
			} else {
				rest = append(rest, float64(c.dur())/1e3)
			}
		}
	}
	if len(rest) > 0 {
		steady := percentile(rest, 50)
		for _, f := range firsts {
			tt.setupUs = append(tt.setupUs, f-steady)
		}
	}
}

// layerSummary is what the spans of a traced pass say about each layer.
type layerSummary struct {
	busyRatio      float64 // Σ runner time / (exploration wall × workers)
	overheadUs     float64 // worker time between runner calls, per schedule
	runnerSetupUs  float64 // first Run of a fresh runner minus its exploration's median Run
	planWaits      float64 // PlanWait intervals per op
	stallRatio     float64 // PlanWait time / op wall
	runP50, runP99 float64
	meanUs         map[string]float64 // mean duration per span name
	count          map[string]int
	self           []selfRow
}

// summarize folds the spans still waiting and derives the per-layer
// numbers.
func (t *tracer) summarize() layerSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fold(0)
	tt := &t.totals
	sum := layerSummary{
		busyRatio:     ratio(float64(tt.busy), float64(tt.capacity)),
		overheadUs:    ratio(float64(tt.gaps)/1e3, float64(tt.schedules)),
		runnerSetupUs: mean(tt.setupUs),
		planWaits:     ratio(float64(tt.count[spanPlanWait]), float64(tt.count[spanOp])),
		stallRatio:    ratio(float64(tt.planWait), float64(tt.opWall)),
		runP50:        percentile(tt.runUs, 50),
		runP99:        percentile(tt.runUs, 99),
		meanUs:        make(map[string]float64),
		count:         tt.count,
	}
	for name, n := range tt.count {
		sum.meanUs[name] = float64(tt.totalNs[name]) / float64(n) / 1e3
		sum.self = append(sum.self, selfRow{Name: name, Count: n, TotalMs: float64(tt.totalNs[name]) / 1e6, SelfMs: float64(tt.selfNs[name]) / 1e6})
	}
	sort.Slice(sum.self, func(a, b int) bool { return sum.self[a].SelfMs > sum.self[b].SelfMs })
	return sum
}

// covered returns how much of s the child spans cover, counting time
// covered by several overlapping children once. A PlanWait interval is a
// wait, not work done inside the op, so it does not reduce the op's self
// time.
func covered(spans []span, s span, kids []int) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		c := spans[k]
		if c.Name == spanPlanWait {
			continue
		}
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var n, end int64
	end = s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		n += v.b - max(v.a, end)
		end = v.b
	}
	return n
}

// writeSpans writes the retained spans as NDJSON, one object per span
// tagged with its workload and its index (which parent refers to), and a
// last line counting the spans that did not fit.
func (t *tracer) writeSpans(w io.Writer, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, s := range t.kept {
		line := struct {
			Workload string `json:"workload"`
			ID       int    `json:"id"`
			span
		}{workload, i, s}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := enc.Encode(map[string]any{"workload": workload, "dropped": t.dropped}); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return bw.Flush()
}
