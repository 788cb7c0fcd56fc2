package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Chrome trace_event constants: one synthetic process, the callback
// track, and a separate track for loop-phase spans so phase B/E pairs
// never interleave with callback slices.
const (
	chromePID      = 1
	chromeTIDMain  = 1
	chromeTIDPhase = 2
)

// chromeEvent is one record of the Chrome trace_event JSON array format
// (the subset Perfetto and chrome://tracing load: name/ph/ts/pid/tid plus
// optional dur and args).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Dur  float64        `json:"dur,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// chromeFrom maps one trace Event to its Chrome representation, or
// returns false for events with no sensible rendering.
func chromeFrom(ev *Event) (chromeEvent, bool) {
	switch ev.Kind {
	case KindCE:
		name := ev.Name
		if name == "" {
			name = ev.API
		}
		return chromeEvent{
			Name: name, Ph: "X", TS: micros(ev.TS), Dur: micros(ev.Dur),
			PID: chromePID, TID: chromeTIDMain, Cat: "callback",
			Args: map[string]any{
				"tick": ev.Tick, "phase": ev.Phase, "api": ev.API,
				"zone": ev.Zone, "thrown": ev.Thrown,
			},
		}, true
	case KindCR, KindCT, KindOB, KindAPI:
		return chromeEvent{
			Name: fmt.Sprintf("%s %s", ev.Kind, ev.API),
			Ph:   "i", TS: micros(ev.TS), PID: chromePID, TID: chromeTIDMain,
			Cat: "api", S: "t",
			Args: map[string]any{
				"name": ev.Name, "loc": ev.Loc, "obj": ev.Obj,
				"regSeq": ev.RegSeq, "trigSeq": ev.TrigSeq,
			},
		}, true
	case KindPhaseEnter, KindPhaseExit:
		ph := "B"
		if ev.Kind == KindPhaseExit {
			ph = "E"
		}
		return chromeEvent{
			Name: "phase:" + ev.Phase, Ph: ph, TS: micros(ev.TS),
			PID: chromePID, TID: chromeTIDPhase, Cat: "phase",
			Args: map[string]any{"iteration": ev.Iteration, "runnable": ev.Runnable},
		}, true
	case KindTimerFire:
		return chromeEvent{
			Name: "timer-fire", Ph: "i", TS: micros(ev.TS),
			PID: chromePID, TID: chromeTIDMain, Cat: "timer", S: "t",
			Args: map[string]any{"timer": ev.Obj, "lag_us": micros(ev.Lag)},
		}, true
	default:
		return chromeEvent{}, false
	}
}

// WriteChrome serializes events as a Chrome trace_event JSON array.
// Open the file in chrome://tracing or https://ui.perfetto.dev. A final
// instant event reports the ring's drop count when events were lost.
func WriteChrome(w io.Writer, events []Event, dropped uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	write := func(ce chromeEvent) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		buf, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		_, err = bw.Write(buf)
		return err
	}
	var last time.Duration
	for i := range events {
		ce, ok := chromeFrom(&events[i])
		if !ok {
			continue
		}
		if events[i].TS > last {
			last = events[i].TS
		}
		if err := write(ce); err != nil {
			return err
		}
	}
	if dropped > 0 {
		if err := write(chromeEvent{
			Name: "trace-dropped", Ph: "i", TS: micros(last),
			PID: chromePID, TID: chromeTIDMain, S: "g",
			Args: map[string]any{"dropped": dropped},
		}); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
