package trace

import (
	"io"
	"strings"
	"time"

	"asyncg/internal/vm"
)

// Capacity is the exporter's ring size: a run that emits more events
// keeps the last Capacity of them.
const Capacity = 65536

// frame tracks one in-flight callback execution.
type frame struct {
	start    time.Duration
	tick     int
	phase    string
	api      string
	name     string
	zone     string
	topLevel bool
}

// Exporter converts the probe stream into structured Events in a bounded
// ring buffer. It implements eventloop.Probe plus the phase and timer
// extensions, so it attaches exactly like the Async Graph builder:
//
//	exp := trace.NewExporter(loop)
//	loop.Probes().Attach(exp)
//	... run ...
//	exp.WriteTo(w, trace.FormatNDJSON)
//
// Only top-level callbacks become CE events: they are the tick
// structure, and nested frames would multiply the event volume.
type Exporter struct {
	clock Clock
	ring  *Ring
	seq   uint64
	tick  int
	stack []frame
}

// NewExporter creates an exporter reading virtual time from clock
// (normally the *eventloop.Loop it attaches to).
func NewExporter(clock Clock) *Exporter {
	return &Exporter{clock: clock, ring: NewRing(Capacity)}
}

// Reset returns the exporter to its initial state — empty ring, sequence
// and tick counters back to zero — while keeping the ring's backing
// storage, so a reset exporter records a subsequent run exactly as a
// fresh one would.
func (e *Exporter) Reset() {
	e.ring.Reset()
	e.seq = 0
	e.tick = 0
	for i := range e.stack {
		e.stack[i] = frame{}
	}
	e.stack = e.stack[:0]
}

// emit stamps the sequence number and pushes the event.
func (e *Exporter) emit(ev Event) {
	e.seq++
	ev.Seq = e.seq
	e.ring.Push(ev)
}

// Ring exposes the underlying buffer (tests, custom sinks).
func (e *Exporter) Ring() *Ring { return e.ring }

// Dropped returns how many events fell outside the ring window.
func (e *Exporter) Dropped() uint64 { return e.ring.Dropped() }

// Events returns the retained events, oldest first.
func (e *Exporter) Events() []Event { return e.ring.Events() }

// FunctionEnter implements eventloop.Probe.
func (e *Exporter) FunctionEnter(fn *vm.Function, info *vm.CallInfo) {
	f := frame{start: e.clock.Now(), phase: info.Phase, topLevel: info.TopLevel, name: fn.Name}
	if info.TopLevel {
		e.tick++
		f.tick = e.tick
	}
	if d := info.Dispatch; d != nil {
		f.api = d.API
		f.zone = d.Zone
	}
	e.stack = append(e.stack, f)
}

// FunctionExit implements eventloop.Probe. The CE event is emitted here
// so it can carry the execution's virtual duration.
func (e *Exporter) FunctionExit(fn *vm.Function, ret vm.Value, thrown *vm.Thrown) {
	if len(e.stack) == 0 {
		return
	}
	f := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	if !f.topLevel {
		return
	}
	e.emit(Event{
		Kind: KindCE, TS: f.start, Dur: e.clock.Now() - f.start,
		Tick: f.tick, Phase: f.phase, API: f.api, Name: f.name,
		Zone: f.zone, Thrown: thrown != nil,
	})
}

// APICall implements eventloop.Probe: object bindings become OB events,
// registrations CR events, triggers CT events, and anything else (clears,
// removals) a generic API event.
func (e *Exporter) APICall(ev *vm.APIEvent) {
	now := e.clock.Now()
	loc := ev.Loc.String()
	structural := false
	if strings.HasPrefix(ev.API, "new ") {
		structural = true
		e.emit(Event{
			Kind: KindOB, TS: now, API: ev.API, Loc: loc,
			Obj: ev.Receiver.ID, ObjKind: string(ev.Receiver.Kind),
		})
	}
	for _, reg := range ev.Regs {
		structural = true
		name := ""
		if reg.Callback != nil {
			name = reg.Callback.Name
		}
		e.emit(Event{
			Kind: KindCR, TS: now, API: ev.API, Name: name, Loc: loc,
			Obj: ev.Receiver.ID, ObjKind: string(ev.Receiver.Kind),
			RegSeq: reg.Seq, Phase: reg.Phase,
		})
	}
	if ev.TriggerSeq != 0 {
		structural = true
		e.emit(Event{
			Kind: KindCT, TS: now, API: ev.API, Name: ev.Event, Loc: loc,
			Obj: ev.Receiver.ID, ObjKind: string(ev.Receiver.Kind),
			TrigSeq: ev.TriggerSeq,
		})
	}
	if !structural {
		e.emit(Event{
			Kind: KindAPI, TS: now, API: ev.API, Name: ev.Event, Loc: loc,
			Obj: ev.Receiver.ID, ObjKind: string(ev.Receiver.Kind),
		})
	}
}

// PhaseEnter implements the optional phase extension.
func (e *Exporter) PhaseEnter(info *vm.PhaseInfo) {
	e.emit(Event{
		Kind: KindPhaseEnter, TS: info.Now, Phase: info.Phase,
		Iteration: info.Iteration, Runnable: info.Runnable,
	})
}

// PhaseExit implements the optional phase extension.
func (e *Exporter) PhaseExit(info *vm.PhaseInfo) {
	e.emit(Event{
		Kind: KindPhaseExit, TS: info.Now, Phase: info.Phase,
		Iteration: info.Iteration, Runnable: info.Runnable,
	})
}

// TimerFired implements the optional timer extension.
func (e *Exporter) TimerFired(info *vm.TimerFire) {
	e.emit(Event{
		Kind: KindTimerFire, TS: info.Fired, Obj: info.ID,
		ObjKind: string(vm.ObjTimer), Lag: info.Lag(),
	})
}

// WriteTo serializes the retained events in the given format.
func (e *Exporter) WriteTo(w io.Writer, format Format) error {
	switch format {
	case FormatChrome:
		return WriteChrome(w, e.Events(), e.Dropped())
	default:
		return WriteNDJSON(w, e.Events(), e.Dropped())
	}
}
