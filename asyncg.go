// Package asyncg is the public facade of the AsyncG reproduction: it
// assembles the simulated Node.js runtime (event loop, timers, promises,
// emitters, network, HTTP, database) with the Async Graph builder and
// the automatic bug detectors, exactly the tool pipeline of the paper
// "Reasoning about the Node.js Event Loop using Async Graphs" (CGO'19).
//
// Typical use:
//
//	session := asyncg.New()
//	report, err := session.Run(func(ctx *asyncg.Context) {
//	    ctx.NextTick(asyncg.F("hello", func(args []asyncg.Value) asyncg.Value {
//	        fmt.Println("hello from the nextTick queue")
//	        return asyncg.Undefined
//	    }))
//	})
//	fmt.Print(report.Graph.DOT("hello"))
//	for _, w := range report.Warnings { fmt.Println(w) }
//
// Sessions are configured with functional options:
//
//	session := asyncg.New(
//	    asyncg.WithLoop(eventloop.Options{TickLimit: 1000}),
//	    asyncg.WithTrace(traceFile, asyncg.TraceChrome),
//	    asyncg.WithMetrics(),
//	)
package asyncg

import (
	"context"
	"io"

	"asyncg/internal/asyncgraph"
	"asyncg/internal/detect"
	"asyncg/internal/eventloop"
	"asyncg/internal/loc"
	"asyncg/internal/trace"
	"asyncg/internal/vm"
)

// Value is the runtime's dynamic value type.
type Value = vm.Value

// Undefined is the runtime's "no value" value.
var Undefined = vm.Undefined

// F creates a callback function value named name, capturing the caller's
// source location for Async Graph labels.
func F(name string, impl func(args []Value) Value) *vm.Function {
	return vm.NewFuncAt(name, loc.Caller(), impl)
}

// Throw raises a simulated JavaScript exception.
func Throw(v Value) { vm.ThrowAt(v, loc.Caller()) }

// TraceFormat selects the serialization of a trace stream.
type TraceFormat = trace.Format

// Re-exported trace formats for WithTrace.
const (
	// TraceNDJSON streams one JSON event per line.
	TraceNDJSON = trace.FormatNDJSON
	// TraceChrome writes a Chrome trace_event array for
	// chrome://tracing / Perfetto.
	TraceChrome = trace.FormatChrome
)

// config is the resolved session configuration built by Options.
type config struct {
	loop        eventloop.Options
	loopSet     bool
	det         detect.Config
	detSet      bool
	disabled    bool
	traceW      io.Writer
	traceFmt    TraceFormat
	traceOn     bool
	metricsOn   bool
	sched       eventloop.Scheduler
	interrupt   func() error
	debugStacks bool
}

// Option configures a Session. Options are applied in order; later
// options win.
type Option func(*config)

// WithLoop configures the event-loop simulator, for example its tick
// limit.
func WithLoop(opts eventloop.Options) Option {
	return func(c *config) { c.loop = opts; c.loopSet = true }
}

// WithScheduler installs a schedule-exploration scheduler on the event
// loop (see eventloop.Scheduler and the explore package). It composes
// with WithLoop regardless of option order: the scheduler is merged into
// the loop options when the session is built.
func WithScheduler(s eventloop.Scheduler) Option {
	return func(c *config) { c.sched = s }
}

// WithContext bounds the run by ctx: the event loop polls ctx.Err at
// every tick boundary and Session.Run returns it (context.Canceled or
// context.DeadlineExceeded) as the run error once it fires, with the
// report covering the truncated prefix. A nil or never-cancelled context
// changes nothing — the check does not perturb scheduling, so runs stay
// byte-identical. Like WithScheduler it composes with WithLoop in any
// order.
func WithContext(ctx context.Context) Option {
	if ctx == nil {
		return func(c *config) {}
	}
	// Bind the method value once: options built ahead of time and
	// re-applied to a reused session (explore workers apply the same
	// slice before every run) would otherwise allocate a fresh
	// ctx.Err closure on every application.
	errf := ctx.Err
	return func(c *config) { c.interrupt = errf }
}

// WithDebugStacks turns on creation-stack capture: the graph builder
// records the Go call stack (via runtime.Callers) at every
// promise/emitter creation, trigger, and callback registration, and
// provenance chains render the captured frames under each hop. Opt-in
// because symbolizing a stack per tracked API call dominates the
// builder's cost (see EXPERIMENTS.md). The exploration layer's
// [explore.WithDebugStacks] applies this option to the witness replays
// behind [explore.WithChains]; the canonical semantics table for all
// three lives in package explore's doc comment.
func WithDebugStacks() Option {
	return func(c *config) { c.debugStacks = true }
}

// WithDetect selects the bug-detector families. Without this option
// all of them run (detect.DefaultConfig).
func WithDetect(cfg detect.Config) Option {
	return func(c *config) { c.det = cfg; c.detSet = true }
}

// Disabled runs the program without the Async Graph builder or the
// detectors attached — the "baseline" setting of the paper's overhead
// evaluation. Tracing and metrics, when requested, still attach: they
// are independent probe consumers.
func Disabled() Option {
	return func(c *config) { c.disabled = true }
}

// WithTrace streams a structured event trace of the run to w in the
// given format. The trace is buffered in a ring that keeps the last
// trace.Capacity events, and written when Run finishes.
func WithTrace(w io.Writer, format TraceFormat) Option {
	return func(c *config) {
		if format == "" {
			format = TraceNDJSON
		}
		c.traceW = w
		c.traceFmt = format
		c.traceOn = true
	}
}

// WithMetrics attaches the online metrics registry; the Report's Metrics
// field carries the resulting snapshot.
func WithMetrics() Option {
	return func(c *config) { c.metricsOn = true }
}

// Report is the outcome of a Session run.
type Report struct {
	// Graph is the Async Graph built during the run (nil when the tool
	// was disabled).
	Graph *asyncgraph.Graph
	// Warnings are the detector findings, online and post-hoc.
	Warnings []asyncgraph.Warning
	// Uncaught lists exceptions that escaped top-level callbacks.
	Uncaught []eventloop.UncaughtError
	// Ticks is the number of top-level callback executions.
	Ticks int
	// Anomalies lists context-validator mismatches (should be empty).
	Anomalies []string
	// Metrics is the observability snapshot (nil unless WithMetrics).
	Metrics *trace.Snapshot
}

// WarningsOf filters the report's warnings by category. Use the typed
// detect.Cat* constants; a bare string still converts but is not checked.
func (r *Report) WarningsOf(category detect.Category) []asyncgraph.Warning {
	var out []asyncgraph.Warning
	for _, w := range r.Warnings {
		if w.Category == category {
			out = append(out, w)
		}
	}
	return out
}

// HasWarning reports whether any warning of the category was found.
func (r *Report) HasWarning(category detect.Category) bool {
	return len(r.WarningsOf(category)) > 0
}

// WarningsOfFamily filters the report's warnings by detector family
// (scheduling, emitter, promise, race).
func (r *Report) WarningsOfFamily(family detect.Family) []asyncgraph.Warning {
	var out []asyncgraph.Warning
	for _, w := range r.Warnings {
		if detect.FamilyOf(w.Category) == family {
			out = append(out, w)
		}
	}
	return out
}

// Session owns one runtime instance plus the attached tool.
type Session struct {
	cfg      config
	loop     *eventloop.Loop
	builder  *asyncgraph.Builder
	analyzer *detect.Analyzer
	exporter *trace.Exporter
	metrics  *trace.Metrics
	ctx      *Context

	// applyCfg is Apply's reusable option-evaluation scratch: the
	// closure calls make a stack-local config escape, and Apply runs
	// before every run of a reused session.
	applyCfg *config
}

// New creates a session. With no options the session tracks everything
// and runs all detectors.
func New(opts ...Option) *Session {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	if !cfg.disabled && !cfg.detSet {
		cfg.det = detect.DefaultConfig()
	}
	loop := cfg.loop
	if cfg.sched != nil {
		loop.Scheduler = cfg.sched
	}
	if cfg.interrupt != nil {
		loop.Interrupt = cfg.interrupt
	}
	s := &Session{cfg: cfg, loop: eventloop.New(loop)}
	if !cfg.disabled {
		graph := asyncgraph.DefaultConfig()
		graph.DebugStacks = cfg.debugStacks
		s.builder = asyncgraph.NewBuilder(graph)
		s.analyzer = detect.NewAnalyzer(s.builder, cfg.det)
		// Order matters: the builder must see each event first so the
		// analyzer can annotate the nodes it creates.
		s.loop.Probes().Attach(s.builder)
		s.loop.Probes().Attach(s.analyzer)
	}
	if cfg.traceOn {
		s.exporter = trace.NewExporter(s.loop)
		s.loop.Probes().Attach(s.exporter)
	}
	if cfg.metricsOn {
		s.metrics = trace.NewMetrics(s.loop)
		s.loop.Probes().Attach(s.metrics)
	}
	s.ctx = &Context{loop: s.loop}
	return s
}

// Loop exposes the underlying event loop (e.g. to attach extra hooks).
func (s *Session) Loop() *eventloop.Loop { return s.loop }

// Exporter exposes the trace exporter (nil unless WithTrace) for
// mid-run inspection.
func (s *Session) Exporter() *trace.Exporter { return s.exporter }

// Metrics exposes the metrics registry (nil unless WithMetrics) for
// mid-run snapshots.
func (s *Session) Metrics() *trace.Metrics { return s.metrics }

// Disable detaches AsyncG's hooks at runtime — the tool is pluggable and
// "once disabled, introduces no overhead". Callable from inside
// callbacks; events while disabled are simply not observed. Trace and
// metrics probes stay attached: they observe, they are not the tool.
func (s *Session) Disable() {
	if s.builder != nil {
		s.loop.Probes().Detach(s.builder)
	}
	if s.analyzer != nil {
		s.loop.Probes().Detach(s.analyzer)
	}
}

// Enable re-attaches AsyncG's hooks. The builder resynchronizes its
// shadow stack at the next tick boundary, as the paper describes for
// mid-run activation.
func (s *Session) Enable() {
	if s.builder != nil {
		s.loop.Probes().Attach(s.builder)
	}
	if s.analyzer != nil {
		s.loop.Probes().Attach(s.analyzer)
	}
}

// Context exposes the runtime API bundle without running (advanced use).
func (s *Session) Context() *Context { return s.ctx }

// Reset returns the session to its cold-start state while retaining its
// allocation set: the event loop (with every substrate that registered a
// reset hook — network, file system, database, promise arena), the Async
// Graph builder, the detectors, and the trace/metrics probes all rewind
// to the state a freshly constructed session would have. Object id and
// registration sequences restart, so a deterministic program re-run after
// Reset produces a byte-identical Report; pools, interned names, and map
// buckets survive, so the re-run allocates almost nothing.
//
// Reset must not be called while Run is executing. Objects obtained from
// the previous run (emitters, promises, servers, documents, the previous
// Report's Graph and Warnings) are invalidated: the runtime recycles
// their storage for the next run.
func (s *Session) Reset() {
	s.loop.Reset()
	if s.builder != nil {
		s.builder.Reset()
	}
	if s.analyzer != nil {
		s.analyzer.Reset()
	}
	if s.exporter != nil {
		s.exporter.Reset()
	}
	if s.metrics != nil {
		s.metrics.Reset()
	}
}

// Apply installs per-run options on a warm session. Only the options
// that may legitimately differ between reused runs take effect: the
// scheduler (WithScheduler — schedule exploration hands every run a
// fresh recording) and the interrupt context (WithContext). A per-run
// option left out means what New uses without it, the scheduler and
// interrupt of the session's WithLoop options: by default the loop's
// own picks and no interrupt, never the previous caller's. Structural
// options — tracing, metrics, graph and detector configuration — are
// fixed at New; passing them here is a no-op, which lets callers forward
// the same option slice they would give a fresh session.
func (s *Session) Apply(opts ...Option) {
	if s.applyCfg == nil {
		s.applyCfg = new(config)
	}
	c := s.applyCfg
	*c = config{}
	for _, opt := range opts {
		opt(c)
	}
	sched, interrupt := s.cfg.loop.Scheduler, s.cfg.loop.Interrupt
	if c.sched != nil {
		sched = c.sched
	}
	if c.interrupt != nil {
		interrupt = c.interrupt
	}
	s.loop.SetScheduler(sched)
	s.loop.SetInterrupt(interrupt)
}

// Structure tells which session structure New(opts...) builds, for
// callers that keep rewound sessions for later runs. ok reports that
// opts set nothing but WithMetrics and the per-run options Apply
// installs (WithScheduler, WithContext); metrics reports whether
// WithMetrics is among them. Two such lists with equal metrics, each
// after the same leading options, build interchangeable sessions: a
// session built from one, once Reset and Applied with the other, runs
// as a fresh session built from the other would. Any other option
// (WithLoop, WithDetect, Disabled, WithTrace, WithDebugStacks) makes ok
// false.
func Structure(opts ...Option) (metrics, ok bool) {
	var c config
	for _, opt := range opts {
		opt(&c)
	}
	return c.metricsOn, !c.loopSet && !c.detSet && !c.disabled && !c.traceOn && !c.debugStacks
}

// Run executes program as the main tick and processes the event loop to
// completion (or to a configured limit, returned as the error — the
// report is still valid in that case, covering the truncated prefix).
// When a trace writer was configured, the buffered trace is flushed to
// it before Run returns; a flush failure is returned only if the run
// itself succeeded.
func (s *Session) Run(program func(ctx *Context)) (*Report, error) {
	main := vm.NewFuncAt("main", loc.Caller(), func([]Value) Value {
		program(s.ctx)
		return Undefined
	})
	err := s.loop.Run(main)
	report := &Report{
		Uncaught: s.loop.Uncaught(),
		Ticks:    s.loop.Tick(),
	}
	if s.builder != nil {
		report.Graph = s.builder.Graph()
		report.Anomalies = s.builder.Anomalies()
	}
	if s.analyzer != nil {
		report.Warnings = s.analyzer.Finish()
	}
	if s.metrics != nil {
		report.Metrics = s.metrics.Snapshot()
	}
	if s.exporter != nil && s.cfg.traceW != nil {
		if werr := s.exporter.WriteTo(s.cfg.traceW, s.cfg.traceFmt); werr != nil && err == nil {
			err = werr
		}
	}
	return report, err
}
