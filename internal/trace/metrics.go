package trace

import (
	"fmt"
	"io"
	"sort"
	"time"

	"asyncg/internal/vm"
)

// PhaseStats aggregates the top-level callbacks of one loop phase.
type PhaseStats struct {
	// Ticks counts top-level callback executions in the phase.
	Ticks int64
	// Busy sums their virtual durations.
	Busy time.Duration
}

// APIStats aggregates the callback executions registered by one API.
type APIStats struct {
	Count int64
	// Latency is the virtual-time execution-duration histogram.
	Latency Histogram
}

// LagStats aggregates timer loop lag (fire time minus deadline).
type LagStats struct {
	Count int64
	Total time.Duration
	Max   time.Duration
}

// Mean returns the average lag.
func (l LagStats) Mean() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return l.Total / time.Duration(l.Count)
}

// Snapshot is a point-in-time copy of the registry, safe to retain after
// the run.
type Snapshot struct {
	// Ticks counts all top-level callback executions.
	Ticks int64
	// Executions counts dispatched callback executions in scope (the
	// Fig. 6b population: nested listener/reaction frames included,
	// engine plumbing and out-of-zone callbacks excluded).
	Executions int64
	// Iterations counts event-loop turns.
	Iterations uint64
	// PerPhase maps phase name to its tick stats.
	PerPhase map[string]PhaseStats
	// PerAPI maps registering API to execution count and latency.
	PerAPI map[string]APIStats
	// QueueHighWater holds the maximum observed depth of each queue.
	QueueHighWater vm.QueueDepths
	// TimerLag aggregates timer fire delays.
	TimerLag LagStats
}

// Merge adds other's aggregates into s: counters and busy times add,
// queue high-water marks and maxima take the larger value, and loop
// iterations add (the merged snapshot describes the union of the runs).
// Merging is commutative, so an aggregate over many runs is independent
// of merge order — the property the analysis server relies on when it
// folds per-job snapshots into its /metrics report.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	s.Ticks += other.Ticks
	s.Executions += other.Executions
	s.Iterations += other.Iterations
	if s.PerPhase == nil {
		s.PerPhase = make(map[string]PhaseStats, len(other.PerPhase))
	}
	for phase, ps := range other.PerPhase {
		cur := s.PerPhase[phase]
		cur.Ticks += ps.Ticks
		cur.Busy += ps.Busy
		s.PerPhase[phase] = cur
	}
	if s.PerAPI == nil {
		s.PerAPI = make(map[string]APIStats, len(other.PerAPI))
	}
	for api, as := range other.PerAPI {
		cur := s.PerAPI[api]
		cur.Count += as.Count
		cur.Latency.Merge(as.Latency)
		s.PerAPI[api] = cur
	}
	hw := &s.QueueHighWater
	o := other.QueueHighWater
	if o.NextTick > hw.NextTick {
		hw.NextTick = o.NextTick
	}
	if o.Promise > hw.Promise {
		hw.Promise = o.Promise
	}
	if o.Timer > hw.Timer {
		hw.Timer = o.Timer
	}
	if o.IO > hw.IO {
		hw.IO = o.IO
	}
	if o.Immediate > hw.Immediate {
		hw.Immediate = o.Immediate
	}
	if o.Close > hw.Close {
		hw.Close = o.Close
	}
	s.TimerLag.Count += other.TimerLag.Count
	s.TimerLag.Total += other.TimerLag.Total
	if other.TimerLag.Max > s.TimerLag.Max {
		s.TimerLag.Max = other.TimerLag.Max
	}
}

// APIExecutions returns the per-API execution counts alone — the Fig. 6b
// comparison surface.
func (s *Snapshot) APIExecutions() map[string]int64 {
	out := make(map[string]int64, len(s.PerAPI))
	for api, st := range s.PerAPI {
		out[api] = st.Count
	}
	return out
}

// mframe tracks one in-flight callback frame.
type mframe struct {
	start    time.Duration
	api      string
	phase    string
	counted  bool
	topLevel bool
}

// Metrics computes observability metrics online from the probe stream in
// O(distinct APIs) memory. It implements eventloop.Probe plus the phase,
// loop, and timer extensions and attaches through Loop.Probes() like
// every other consumer.
type Metrics struct {
	clock Clock

	ticks      int64
	executions int64
	iterations uint64
	perPhase   map[string]*PhaseStats
	perAPI     map[string]*APIStats
	highWater  vm.QueueDepths
	lag        LagStats
	stack      []mframe
}

// NewMetrics creates a registry reading virtual time from clock
// (normally the *eventloop.Loop it attaches to).
func NewMetrics(clock Clock) *Metrics {
	return &Metrics{
		clock:    clock,
		perPhase: make(map[string]*PhaseStats),
		perAPI:   make(map[string]*APIStats),
	}
}

// Reset returns the registry to its initial state while retaining its
// allocations: per-phase and per-API entries are zeroed in place (and
// skipped by Snapshot until they count again), so a reset registry is
// indistinguishable from a fresh one to every consumer.
func (m *Metrics) Reset() {
	m.ticks, m.executions, m.iterations = 0, 0, 0
	for _, ps := range m.perPhase {
		*ps = PhaseStats{}
	}
	for _, as := range m.perAPI {
		*as = APIStats{}
	}
	m.highWater = vm.QueueDepths{}
	m.lag = LagStats{}
	for i := range m.stack {
		m.stack[i] = mframe{}
	}
	m.stack = m.stack[:0]
}

// inScope selects the Fig. 6(b) population: dispatched callbacks only,
// excluding the synthetic main tick, engine-internal promise plumbing
// (handler-less reaction slots, adoption), and the client zone — the
// paper measures inside the server process, so the simulated workload
// driver's callbacks are out of scope.
func inScope(d *vm.Dispatch) bool {
	return d != nil && d.API != "main" && d.API != "promise.passthrough" && d.Zone != "client"
}

// FunctionEnter implements eventloop.Probe.
func (m *Metrics) FunctionEnter(fn *vm.Function, info *vm.CallInfo) {
	f := mframe{start: m.clock.Now(), phase: info.Phase, topLevel: info.TopLevel}
	if d := info.Dispatch; inScope(d) {
		f.counted = true
		f.api = d.API
		m.executions++
		if _, ok := m.perAPI[f.api]; !ok {
			m.perAPI[f.api] = &APIStats{}
		}
		m.perAPI[f.api].Count++
	}
	if info.TopLevel {
		m.ticks++
		ps, ok := m.perPhase[f.phase]
		if !ok {
			ps = &PhaseStats{}
			m.perPhase[f.phase] = ps
		}
		ps.Ticks++
	}
	m.stack = append(m.stack, f)
}

// FunctionExit implements eventloop.Probe.
func (m *Metrics) FunctionExit(fn *vm.Function, ret vm.Value, thrown *vm.Thrown) {
	if len(m.stack) == 0 {
		return
	}
	f := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	dur := m.clock.Now() - f.start
	if f.counted {
		m.perAPI[f.api].Latency.Observe(dur)
	}
	if f.topLevel {
		m.perPhase[f.phase].Busy += dur
	}
}

// APICall implements eventloop.Probe. Registrations and triggers carry
// no metric of their own; execution counting happens at dispatch.
func (m *Metrics) APICall(ev *vm.APIEvent) {}

// PhaseEnter implements the optional phase extension.
func (m *Metrics) PhaseEnter(info *vm.PhaseInfo) {}

// PhaseExit implements the optional phase extension.
func (m *Metrics) PhaseExit(info *vm.PhaseInfo) {}

// LoopIteration implements the optional loop extension, tracking queue
// high-water marks.
func (m *Metrics) LoopIteration(info *vm.LoopInfo) {
	m.iterations = info.Iteration
	d := info.Depths
	if d.NextTick > m.highWater.NextTick {
		m.highWater.NextTick = d.NextTick
	}
	if d.Promise > m.highWater.Promise {
		m.highWater.Promise = d.Promise
	}
	if d.Timer > m.highWater.Timer {
		m.highWater.Timer = d.Timer
	}
	if d.IO > m.highWater.IO {
		m.highWater.IO = d.IO
	}
	if d.Immediate > m.highWater.Immediate {
		m.highWater.Immediate = d.Immediate
	}
	if d.Close > m.highWater.Close {
		m.highWater.Close = d.Close
	}
}

// TimerFired implements the optional timer extension.
func (m *Metrics) TimerFired(info *vm.TimerFire) {
	lag := info.Lag()
	if lag < 0 {
		lag = 0
	}
	m.lag.Count++
	m.lag.Total += lag
	if lag > m.lag.Max {
		m.lag.Max = lag
	}
}

// Snapshot copies the registry's current state.
func (m *Metrics) Snapshot() *Snapshot {
	s := &Snapshot{
		Ticks:          m.ticks,
		Executions:     m.executions,
		Iterations:     m.iterations,
		PerPhase:       make(map[string]PhaseStats, len(m.perPhase)),
		PerAPI:         make(map[string]APIStats, len(m.perAPI)),
		QueueHighWater: m.highWater,
		TimerLag:       m.lag,
	}
	for phase, ps := range m.perPhase {
		if ps.Ticks == 0 && ps.Busy == 0 {
			continue // zeroed by Reset, not yet re-counted
		}
		s.PerPhase[phase] = *ps
	}
	for api, as := range m.perAPI {
		if as.Count == 0 {
			continue // zeroed by Reset, not yet re-counted
		}
		s.PerAPI[api] = *as
	}
	return s
}

// phaseOrder lists phases in the loop's dispatch order for rendering.
var phaseOrder = []string{"main", "nextTick", "promise", "timer", "io", "immediate", "close"}

// WriteText renders the snapshot as an aligned report.
func (s *Snapshot) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "metrics — %d ticks over %d loop iterations\n", s.Ticks, s.Iterations); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %10s %14s\n", "phase", "ticks", "busy(vtime)")
	seen := make(map[string]bool)
	writePhase := func(phase string) {
		ps, ok := s.PerPhase[phase]
		if !ok {
			return
		}
		seen[phase] = true
		fmt.Fprintf(w, "%-10s %10d %14s\n", phase, ps.Ticks, ps.Busy)
	}
	for _, phase := range phaseOrder {
		writePhase(phase)
	}
	var rest []string
	for phase := range s.PerPhase {
		if !seen[phase] {
			rest = append(rest, phase)
		}
	}
	sort.Strings(rest)
	for _, phase := range rest {
		writePhase(phase)
	}
	hw := s.QueueHighWater
	fmt.Fprintf(w, "queue high-water: nextTick=%d promise=%d timer=%d io=%d immediate=%d close=%d\n",
		hw.NextTick, hw.Promise, hw.Timer, hw.IO, hw.Immediate, hw.Close)
	if s.TimerLag.Count > 0 {
		fmt.Fprintf(w, "timer lag: %d fires, mean %s, max %s\n",
			s.TimerLag.Count, s.TimerLag.Mean(), s.TimerLag.Max)
	}
	fmt.Fprintf(w, "%-24s %10s %12s %12s %12s\n", "api", "execs", "lat mean", "lat p95", "lat max")
	apis := make([]string, 0, len(s.PerAPI))
	for api := range s.PerAPI {
		apis = append(apis, api)
	}
	sort.Slice(apis, func(i, j int) bool {
		if s.PerAPI[apis[i]].Count != s.PerAPI[apis[j]].Count {
			return s.PerAPI[apis[i]].Count > s.PerAPI[apis[j]].Count
		}
		return apis[i] < apis[j]
	})
	for _, api := range apis {
		as := s.PerAPI[api]
		_, err := fmt.Fprintf(w, "%-24s %10d %12s %12s %12s\n",
			api, as.Count, as.Latency.Mean(), as.Latency.Quantile(0.95), as.Latency.Max)
		if err != nil {
			return err
		}
	}
	return nil
}
