// Package trace is the streaming observability layer of the tool: it
// turns the probe stream of the simulated event loop into structured
// trace events (NDJSON or Chrome trace_event JSON, loadable in
// chrome://tracing and Perfetto) and into online metrics — per-phase tick
// counts and virtual-time durations, queue-depth high-water marks, timer
// loop lag, and per-API callback-latency histograms.
//
// Both consumers implement eventloop.Probe (plus some of the optional
// phase, loop-iteration, and timer extensions) and attach through the
// same Loop.Probes() fan-out as the Async Graph builder and the bug
// detectors. The exporter buffers events in a ring that keeps the last
// Capacity events, so a run with millions of requests holds O(capacity)
// memory instead of O(events); the metrics registry is O(distinct APIs)
// regardless of run length.
package trace

import (
	"fmt"
	"time"
)

// Clock supplies virtual time to trace consumers. *eventloop.Loop
// implements it; probe hooks run synchronously on the loop goroutine, so
// reading the clock inside a hook observes the dispatch-time instant.
type Clock interface {
	Now() time.Duration
}

// Kind classifies a trace event. The first four kinds mirror the Async
// Graph node vocabulary of the paper (§IV-A); the rest are loop-level
// events the graph does not materialize.
type Kind string

// Trace event kinds.
const (
	// KindCR is a callback registration (setTimeout, emitter.on, ...).
	KindCR Kind = "CR"
	// KindCE is a callback execution. CE events are emitted at callback
	// exit and carry both the start timestamp and the virtual duration
	// (like a Chrome "complete" event), so registrations made inside the
	// callback appear before their enclosing CE in stream order; sort by
	// TS to recover execution order.
	KindCE Kind = "CE"
	// KindCT is a callback trigger (emitter.emit, resolve, reject).
	KindCT Kind = "CT"
	// KindOB is an object binding (new Promise, new EventEmitter, ...).
	KindOB Kind = "OB"
	// KindAPI is any other async-API use (clearTimeout, removeListener).
	KindAPI Kind = "API"
	// KindPhaseEnter / KindPhaseExit bracket a macro phase that had
	// runnable work.
	KindPhaseEnter Kind = "phase-enter"
	KindPhaseExit  Kind = "phase-exit"
	// KindTimerFire is an imminent timer dispatch with its loop lag.
	KindTimerFire Kind = "timer-fire"
	// KindSummary is the trailer event NDJSON output ends with, carrying
	// the retained/dropped accounting of the ring buffer.
	KindSummary Kind = "summary"
)

// Event is one structured trace record. All timestamps and durations are
// virtual time. Fields are omitted from JSON when empty, so NDJSON lines
// stay close to the information the originating probe carried.
type Event struct {
	// Seq numbers events in emission order (1-based, monotonic even
	// across ring-buffer drops).
	Seq uint64 `json:"seq"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// TS is the event's virtual timestamp; for CE events the execution's
	// start instant.
	TS time.Duration `json:"ts"`
	// Dur is the virtual duration of CE events.
	Dur time.Duration `json:"dur,omitempty"`
	// Tick is the 1-based top-level callback index for CE events.
	Tick int `json:"tick,omitempty"`
	// Phase is the event-loop phase (CE, phase-enter/exit events).
	Phase string `json:"phase,omitempty"`
	// API is the async API involved ("setTimeout", "emitter.emit", ...).
	API string `json:"api,omitempty"`
	// Name is the callback or emitter-event name.
	Name string `json:"name,omitempty"`
	// Loc is the user source location of the API use.
	Loc string `json:"loc,omitempty"`
	// Obj identifies the bound runtime object (timer, emitter, promise).
	Obj uint64 `json:"obj,omitempty"`
	// ObjKind is the bound object's kind.
	ObjKind string `json:"objKind,omitempty"`
	// RegSeq links CR events to the CE they eventually dispatch.
	RegSeq uint64 `json:"regSeq,omitempty"`
	// TrigSeq links CT events to the executions they cause.
	TrigSeq uint64 `json:"trigSeq,omitempty"`
	// Zone tags the simulated process ("" = server, "client" = workload
	// driver) for CE events.
	Zone string `json:"zone,omitempty"`
	// Thrown marks CE events whose callback raised.
	Thrown bool `json:"thrown,omitempty"`
	// Iteration is the loop-iteration count (phase events).
	Iteration uint64 `json:"iter,omitempty"`
	// Runnable is the phase's dispatchable-callback census (phase events).
	Runnable int `json:"runnable,omitempty"`
	// Lag is the scheduled-to-fired delay of timer-fire events.
	Lag time.Duration `json:"lag,omitempty"`
	// Dropped is the ring's drop count (summary events only).
	Dropped uint64 `json:"dropped,omitempty"`
	// Events is the retained-event count (summary events only).
	Events int `json:"events,omitempty"`
}

// Format selects a trace serialization.
type Format string

// Supported trace formats.
const (
	// FormatNDJSON writes one Event per line, closing with a summary
	// line — the machine-readable streaming format.
	FormatNDJSON Format = "ndjson"
	// FormatChrome writes the Chrome trace_event JSON array format,
	// loadable in chrome://tracing and https://ui.perfetto.dev.
	FormatChrome Format = "chrome"
)

// ParseFormat validates a format name from a CLI flag.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatNDJSON, FormatChrome:
		return Format(s), nil
	default:
		return "", fmt.Errorf("trace: unknown format %q (want %q or %q)", s, FormatNDJSON, FormatChrome)
	}
}
