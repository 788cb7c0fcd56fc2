package detect

import (
	"fmt"
	"time"

	"asyncg/internal/asyncgraph"
	"asyncg/internal/eventloop"
	"asyncg/internal/loc"
	"asyncg/internal/promise"
	"asyncg/internal/vm"
)

// similar-API priority ranks: a registration with a lower rank executes
// before a later-phase one scheduled in the same tick, regardless of
// registration order. Mixing ranks out of order is the §VI-A(b) bug.
const (
	rankNextTick = iota
	rankPromise
	rankImmediate
	rankTimeoutZero
)

// similarReg is one same-tick registration of a "similar" scheduling API.
type similarReg struct {
	api   string
	rank  int
	node  asyncgraph.NodeID
	loc   loc.Loc
	order int
}

// timeoutGroup tracks the §VI-A(c) detector: setTimeout registrations
// made in the same tick, watched until the first of them executes.
type timeoutGroup struct {
	entries []timeoutEntry
	fired   bool
}

type timeoutEntry struct {
	regSeq uint64
	delay  time.Duration
	node   asyncgraph.NodeID
}

// schedState is the scheduling-bug detector state.
type schedState struct {
	// Recursive micro-tasks: the callback whose micro-tick is running,
	// and per-callback counts of consecutive self-reschedules.
	curMicroFn  *vm.Function
	selfResched map[*vm.Function]int
	// Consecutive micro ticks without a macro phase in between.
	microRun int
	starved  bool

	tickSimilar  []similarReg
	tickTimeouts []timeoutEntry
	regToGroup   map[uint64]*timeoutGroup

	// settled promises, for ranking then() on an already-settled
	// promise as a micro-task registration.
	settled map[uint64]bool
}

func newSchedState() *schedState {
	return &schedState{
		selfResched: make(map[*vm.Function]int),
		regToGroup:  make(map[uint64]*timeoutGroup),
		settled:     make(map[uint64]bool),
	}
}

// reset returns the detector to its initial state, keeping map buckets
// and scratch-slice capacity.
func (s *schedState) reset() {
	s.curMicroFn = nil
	clear(s.selfResched)
	s.microRun = 0
	s.starved = false
	for i := range s.tickSimilar {
		s.tickSimilar[i] = similarReg{}
	}
	s.tickSimilar = s.tickSimilar[:0]
	for i := range s.tickTimeouts {
		s.tickTimeouts[i] = timeoutEntry{}
	}
	s.tickTimeouts = s.tickTimeouts[:0]
	clear(s.regToGroup)
	clear(s.settled)
}

// tickStart runs when a new top-level callback begins.
func (s *schedState) tickStart(a *Analyzer, fn *vm.Function, info *vm.CallInfo) {
	if eventloop.Phase(info.Phase).IsMicro() {
		s.curMicroFn = fn
		s.microRun++
		if !s.starved && s.microRun >= MicroStarvationThreshold {
			s.starved = true
			a.g.AddWarning(asyncgraph.NoNode, CatMicroStarvation,
				fmt.Sprintf("%d consecutive micro-task ticks without reaching any other event-loop phase", s.microRun),
				fn.Loc)
		}
	} else {
		s.curMicroFn = nil
		s.microRun = 0
		// A macro tick breaks every self-reschedule chain.
		for k := range s.selfResched {
			delete(s.selfResched, k)
		}
	}
}

// tickEnd runs when the outermost callback of a tick returns: evaluate
// the same-tick mixing detector and close the tick's timeout group.
func (s *schedState) tickEnd(a *Analyzer) {
	s.checkMixing(a)
	s.tickSimilar = s.tickSimilar[:0]
	if len(s.tickTimeouts) >= 2 {
		g := &timeoutGroup{entries: append([]timeoutEntry(nil), s.tickTimeouts...)}
		for _, e := range g.entries {
			s.regToGroup[e.regSeq] = g
		}
	}
	s.tickTimeouts = s.tickTimeouts[:0]
	if s.curMicroFn != nil && s.selfResched[s.curMicroFn] == 0 {
		// The micro callback ran without rescheduling itself: its chain
		// (if any) is broken.
		delete(s.selfResched, s.curMicroFn)
	}
	s.curMicroFn = nil
}

// checkMixing warns when similar scheduling APIs used in the same tick
// will execute in an order different from their registration order.
func (s *schedState) checkMixing(a *Analyzer) {
	regs := s.tickSimilar
	for i := 0; i < len(regs); i++ {
		for j := i + 1; j < len(regs); j++ {
			if regs[i].rank > regs[j].rank {
				a.g.AddWarning(regs[j].node, CatMixedAPIs,
					fmt.Sprintf("%s (registered after %s at %s) will execute before it: mixing similar APIs with different scheduling priorities",
						regs[j].api, regs[i].api, regs[i].loc),
					a.nodeLoc(regs[j].node))
				return // one warning per tick is enough
			}
		}
	}
}

func (a *Analyzer) nodeLoc(id asyncgraph.NodeID) loc.Loc {
	if n := a.g.Node(id); n != nil {
		return n.Loc
	}
	return loc.Internal
}

// apiCall records same-tick similar-API registrations, timeout groups,
// and recursive micro-task scheduling.
func (s *schedState) apiCall(a *Analyzer, ev *vm.APIEvent) {
	switch ev.API {
	case eventloop.APINextTick:
		s.addSimilar(a, ev, rankNextTick)
		s.noteMicroReschedule(a, ev, "process.nextTick")
	case eventloop.APISetImmediate:
		s.addSimilar(a, ev, rankImmediate)
	case eventloop.APISetTimeout:
		if len(ev.Args) == 1 {
			if d, ok := ev.Args[0].(time.Duration); ok {
				if d <= time.Millisecond {
					s.addSimilar(a, ev, rankTimeoutZero)
				}
				if len(ev.Regs) == 1 {
					s.tickTimeouts = append(s.tickTimeouts, timeoutEntry{
						regSeq: ev.Regs[0].Seq,
						delay:  d,
						node:   a.lastCRNode(ev),
					})
				}
			}
		}
	case promise.APIResolve, promise.APIReject:
		if ev.Receiver.Kind == vm.ObjPromise {
			s.settled[ev.Receiver.ID] = true
		}
	case promise.APIThen, promise.APICatch, promise.APIFinally, promise.APIAwait:
		if s.settled[ev.Receiver.ID] && len(ev.Regs) > 0 {
			// A reaction on an already-settled promise schedules a
			// micro-task right now: it participates in same-tick
			// ordering like nextTick and setImmediate do.
			s.addSimilar(a, ev, rankPromise)
			s.noteMicroReschedule(a, ev, ev.API)
		}
	}
}

// addSimilar records one similar-API registration in the current tick.
func (s *schedState) addSimilar(a *Analyzer, ev *vm.APIEvent, rank int) {
	s.tickSimilar = append(s.tickSimilar, similarReg{
		api:   ev.API,
		rank:  rank,
		node:  a.lastCRNode(ev),
		loc:   ev.Loc,
		order: len(s.tickSimilar),
	})
}

// noteMicroReschedule detects the §VI-A(a) recursive micro-task bug: the
// currently executing micro-task callback registers itself again on a
// micro-task queue.
func (s *schedState) noteMicroReschedule(a *Analyzer, ev *vm.APIEvent, api string) {
	if s.curMicroFn == nil || len(ev.Regs) == 0 {
		return
	}
	for _, reg := range ev.Regs {
		if reg.Callback != s.curMicroFn {
			continue
		}
		s.selfResched[reg.Callback]++
		if s.selfResched[reg.Callback] >= RecursiveMicroThreshold {
			a.g.AddWarning(a.lastCRNode(ev), CatRecursiveMicrotask, a.internRecursiveMsg(reg.Callback.Name, api), ev.Loc)
		}
	}
}

// execution checks the timeout-order detector on every dispatched
// callback execution.
func (s *schedState) execution(a *Analyzer, d *vm.Dispatch) {
	g, ok := s.regToGroup[d.RegSeq]
	if !ok {
		return
	}
	delete(s.regToGroup, d.RegSeq)
	if g.fired {
		return
	}
	g.fired = true
	var mine, min timeoutEntry
	min.delay = -1
	for _, e := range g.entries {
		if e.regSeq == d.RegSeq {
			mine = e
		}
		if min.delay < 0 || e.delay < min.delay {
			min = e
		}
	}
	if mine.delay > min.delay {
		a.g.AddWarning(mine.node, CatTimeoutOrder,
			fmt.Sprintf("setTimeout callback with the larger timeout (%v) executed before the one with %v registered in the same tick: timeout values do not guarantee execution order",
				mine.delay, min.delay),
			a.nodeLoc(mine.node))
	}
}

// lastCRNode resolves the CR node the builder created for ev.
func (a *Analyzer) lastCRNode(ev *vm.APIEvent) asyncgraph.NodeID {
	if len(ev.Regs) == 0 {
		return asyncgraph.NoNode
	}
	if n := a.b.NodeByRegSeq(ev.Regs[0].Seq); n != nil {
		return n.ID
	}
	return asyncgraph.NoNode
}
