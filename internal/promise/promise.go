// Package promise implements ECMAScript-style promises on the simulated
// event loop, including then/catch/finally chaining, thenable adoption,
// the standard combinators (all, race, allSettled, any), and async/await.
//
// Reaction jobs go through the loop's promise microtask queue, so their
// ordering relative to process.nextTick, timers, immediates and I/O
// matches the Node.js semantics of the paper's Fig. 2. Every creation,
// registration, settlement and chain relation is announced through probe
// events, which is what lets the Async Graph model promise chains (the
// △⇠then⇠△ and △⇠link⇠△ edges of §IV-A).
package promise

import (
	"fmt"

	"asyncg/internal/eventloop"
	"asyncg/internal/loc"
	"asyncg/internal/vm"
)

// API names announced through probe events. APICreate is the Object
// Binding event for every new promise; its Event field carries the kind
// ("constructor", "then", "async", "all", ...).
const (
	APICreate      = "promise.create"
	APIExecutor    = "promise.executor"
	APIResolve     = "promise.resolve"
	APIReject      = "promise.reject"
	APIThen        = "promise.then"
	APICatch       = "promise.catch"
	APIFinally     = "promise.finally"
	APIAwait       = "await"
	APILink        = "promise.link"
	APIPassthrough = "promise.passthrough"
	APIAll         = "Promise.all"
	APIRace        = "Promise.race"
	APIAllSettled  = "Promise.allSettled"
	APIAny         = "Promise.any"
	APIAsync       = "async function"
)

// State is a promise's lifecycle state.
type State int

// Promise states.
const (
	Pending State = iota
	Fulfilled
	Rejected
)

// String names the settlement state ("pending", "fulfilled",
// "rejected").
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Fulfilled:
		return "fulfilled"
	case Rejected:
		return "rejected"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// reaction is one registered then/catch/finally/await continuation.
type reaction struct {
	onFulfilled *vm.Function // nil: pass value through
	onRejected  *vm.Function // nil: pass reason through
	derived     *Promise     // settled from the handler result; nil for await
	regFul      uint64
	regRej      uint64
	api         string
	after       func(ret vm.Value, thrown *vm.Thrown) // overrides derived settling (await)
}

// Promise is a simulated JavaScript promise.
type Promise struct {
	loop       *eventloop.Loop
	id         uint64
	state      State
	value      vm.Value // fulfillment value or rejection reason
	reactions  []*reaction
	settleTrig uint64
}

// passThrough carries the settled value through a reaction slot that has
// no handler for the relevant state (e.g. the fulfilled path of catch).
var passThrough = vm.NewFuncAt("(passthrough)", loc.Internal, func(args []vm.Value) vm.Value {
	return vm.Arg(args, 0)
})

// New creates a promise and synchronously invokes executor with the
// promise as its single argument, as the Promise constructor does. An
// exception thrown by the executor rejects the promise.
func New(l *eventloop.Loop, at loc.Loc, executor *vm.Function) *Promise {
	p := newPromise(l, at, "constructor", nil)
	if executor != nil {
		seq := l.NextRegSeq()
		ev := l.BorrowAPIEvent()
		ev.API = APIExecutor
		ev.Loc = executor.Loc
		ev.Receiver = p.Ref()
		ev.SetOneReg(vm.Registration{Seq: seq, Callback: executor, Phase: "sync", Once: true, Role: "executor"})
		l.EmitAPIEvent(ev)
		l.ReturnAPIEvent(ev)
		d := l.NewDispatch()
		d.API = APIExecutor
		d.RegSeq = seq
		d.Obj = p.Ref()
		_, thrown := l.Invoke(executor, []vm.Value{p}, d)
		l.RecycleDispatch(d)
		if thrown != nil {
			p.settle(thrown.Loc, Rejected, thrown.Value, APIReject)
		}
	}
	return p
}

// Resolved creates an already-fulfilled promise (Promise.resolve).
func Resolved(l *eventloop.Loop, at loc.Loc, v vm.Value) *Promise {
	p := newPromise(l, at, "Promise.resolve", nil)
	p.Resolve(at, v)
	return p
}

// RejectedP creates an already-rejected promise (Promise.reject).
func RejectedP(l *eventloop.Loop, at loc.Loc, reason vm.Value) *Promise {
	p := newPromise(l, at, "Promise.reject", nil)
	p.Reject(at, reason)
	return p
}

// newPromise allocates a promise from the loop's arena and announces its
// Object Binding node. kind describes how the promise came to be;
// related carries relation edges (the source promise of a then, the
// inputs of a combinator).
func newPromise(l *eventloop.Loop, at loc.Loc, kind string, related []vm.ObjRef) *Promise {
	p := arenaFor(l).alloc()
	p.loop = l
	p.id = l.NextObjID()
	ev := l.BorrowAPIEvent()
	ev.API = APICreate
	ev.Event = kind
	ev.Loc = at
	ev.Receiver = p.Ref()
	ev.Related = related
	l.EmitAPIEvent(ev)
	l.ReturnAPIEvent(ev)
	return p
}

// Ref returns the probe-protocol reference for this promise.
func (p *Promise) Ref() vm.ObjRef { return vm.ObjRef{ID: p.id, Kind: vm.ObjPromise} }

// ID returns the promise's runtime-object identity.
func (p *Promise) ID() uint64 { return p.id }

// State returns the current lifecycle state.
func (p *Promise) State() State { return p.state }

// Value returns the fulfillment value or rejection reason; it is only
// meaningful once the promise is settled.
func (p *Promise) Value() vm.Value { return p.value }

// String renders the promise as "Promise#id(state)".
func (p *Promise) String() string {
	return fmt.Sprintf("Promise#%d(%s)", p.id, p.state)
}

// Resolve fulfills the promise with v. If v is itself a promise, p adopts
// its eventual state instead (thenable adoption). Resolving an already
// settled promise has no effect beyond an API event marked
// "already-settled" — the paper's Double Resolve bug.
func (p *Promise) Resolve(at loc.Loc, v vm.Value) {
	if inner, ok := v.(*Promise); ok {
		if inner == p {
			// Self-resolution is a chaining cycle; ECMAScript rejects
			// with a TypeError.
			p.settle(at, Rejected, "TypeError: chaining cycle detected for promise", APIReject)
			return
		}
		p.adopt(at, inner)
		return
	}
	p.settle(at, Fulfilled, v, APIResolve)
}

// Reject rejects the promise with reason.
func (p *Promise) Reject(at loc.Loc, reason vm.Value) {
	p.settle(at, Rejected, reason, APIReject)
}

func (p *Promise) settle(at loc.Loc, state State, v vm.Value, api string) {
	trig := p.loop.NextTrigSeq()
	ev := p.loop.BorrowAPIEvent()
	ev.API = api
	ev.Loc = at
	ev.Receiver = p.Ref()
	ev.TriggerSeq = trig
	ev.SetOneArg(v)
	if p.state != Pending {
		ev.Event = "already-settled"
		p.loop.EmitAPIEvent(ev)
		p.loop.ReturnAPIEvent(ev)
		return
	}
	p.loop.EmitAPIEvent(ev)
	p.loop.ReturnAPIEvent(ev)
	p.state = state
	p.value = v
	p.settleTrig = trig
	pending := p.reactions
	// Truncate rather than nil: nothing is ever appended to a settled
	// promise's reaction list, and the backing array (arena-owned
	// entries) is kept for the slot's next life.
	p.reactions = pending[:0]
	for _, r := range pending {
		p.scheduleReaction(r)
	}
}

// adopt makes p settle the way inner eventually settles. The adoption
// reactions are engine-internal; the Async Graph links the two promises
// with a "link" relation edge instead of showing the plumbing.
func (p *Promise) adopt(at loc.Loc, inner *Promise) {
	ev := p.loop.BorrowAPIEvent()
	ev.API = APILink
	ev.Loc = at
	ev.Receiver = inner.Ref()
	ev.SetOneRelated(p.Ref())
	p.loop.EmitAPIEvent(ev)
	p.loop.ReturnAPIEvent(ev)
	r := arenaFor(p.loop).allocReaction()
	r.api = APIPassthrough
	r.after = func(ret vm.Value, thrown *vm.Thrown) {
		switch inner.state {
		case Fulfilled:
			p.settle(loc.Internal, Fulfilled, inner.value, APIResolve)
		case Rejected:
			p.settle(loc.Internal, Rejected, inner.value, APIReject)
		}
	}
	inner.addReaction(loc.Internal, r)
}

// Then registers fulfillment and rejection handlers and returns the
// derived promise. Either handler may be nil, giving the usual
// pass-through behaviour.
func (p *Promise) Then(at loc.Loc, onFulfilled, onRejected *vm.Function) *Promise {
	return p.chain(at, APIThen, "then", onFulfilled, onRejected)
}

// Catch registers a rejection handler (promise.catch).
func (p *Promise) Catch(at loc.Loc, onRejected *vm.Function) *Promise {
	return p.chain(at, APICatch, "catch", nil, onRejected)
}

// Finally registers a handler invoked on settlement either way; the
// derived promise repeats p's outcome unless the handler throws.
func (p *Promise) Finally(at loc.Loc, onFinally *vm.Function) *Promise {
	derived := newPromise(p.loop, at, "finally", nil)
	seq := p.loop.NextRegSeq()
	ev := p.loop.BorrowAPIEvent()
	ev.API = APIFinally
	ev.Loc = at
	ev.Receiver = p.Ref()
	ev.Event = "finally"
	ev.SetOneRelated(derived.Ref())
	ev.SetOneReg(vm.Registration{Seq: seq, Callback: onFinally, Phase: string(eventloop.PhasePromise), Once: true, Role: "finally"})
	p.loop.EmitAPIEvent(ev)
	p.loop.ReturnAPIEvent(ev)
	r := arenaFor(p.loop).allocReaction()
	r.onFulfilled = onFinally
	r.onRejected = onFinally
	r.regFul = seq
	r.regRej = seq
	r.api = APIFinally
	r.after = func(ret vm.Value, thrown *vm.Thrown) {
		switch {
		case thrown != nil:
			derived.settle(loc.Internal, Rejected, thrown.Value, APIReject)
		case p.state == Fulfilled:
			derived.settle(loc.Internal, Fulfilled, p.value, APIResolve)
		default:
			derived.settle(loc.Internal, Rejected, p.value, APIReject)
		}
	}
	p.addReaction(at, r)
	return derived
}

// chain implements Then/Catch: it creates the derived promise, announces
// the registration with a relation edge, and wires result propagation.
func (p *Promise) chain(at loc.Loc, api, relation string, onFulfilled, onRejected *vm.Function) *Promise {
	derived := newPromise(p.loop, at, relation, nil)
	r := arenaFor(p.loop).allocReaction()
	r.onFulfilled = onFulfilled
	r.onRejected = onRejected
	r.derived = derived
	r.api = api
	ev := p.loop.BorrowAPIEvent()
	ev.API = api
	ev.Loc = at
	ev.Receiver = p.Ref()
	ev.Event = relation
	ev.SetOneRelated(derived.Ref())
	switch {
	case onFulfilled != nil && onRejected != nil:
		r.regFul = p.loop.NextRegSeq()
		r.regRej = p.loop.NextRegSeq()
		ev.Regs = []vm.Registration{
			{Seq: r.regFul, Callback: onFulfilled, Phase: string(eventloop.PhasePromise), Once: true, Role: "fulfill"},
			{Seq: r.regRej, Callback: onRejected, Phase: string(eventloop.PhasePromise), Once: true, Role: "reject"},
		}
	case onFulfilled != nil:
		r.regFul = p.loop.NextRegSeq()
		ev.SetOneReg(vm.Registration{Seq: r.regFul, Callback: onFulfilled, Phase: string(eventloop.PhasePromise), Once: true, Role: "fulfill"})
	case onRejected != nil:
		r.regRej = p.loop.NextRegSeq()
		ev.SetOneReg(vm.Registration{Seq: r.regRej, Callback: onRejected, Phase: string(eventloop.PhasePromise), Once: true, Role: "reject"})
	}
	p.loop.EmitAPIEvent(ev)
	p.loop.ReturnAPIEvent(ev)
	p.addReaction(at, r)
	return derived
}

// addReaction queues (or, if already settled, schedules) a reaction.
func (p *Promise) addReaction(at loc.Loc, r *reaction) {
	if p.state == Pending {
		p.reactions = append(p.reactions, r)
		return
	}
	p.scheduleReaction(r)
}

// scheduleReaction enqueues the reaction job for the settled state.
func (p *Promise) scheduleReaction(r *reaction) {
	handler := r.onFulfilled
	regSeq := r.regFul
	if p.state == Rejected {
		handler = r.onRejected
		regSeq = r.regRej
	}
	api := r.api
	if handler == nil {
		handler = passThrough
		api = APIPassthrough
		regSeq = 0
	}
	after := r.after
	if after == nil {
		state := p.state
		after = func(ret vm.Value, thrown *vm.Thrown) {
			if r.derived == nil {
				return
			}
			switch {
			case thrown != nil:
				r.derived.settle(thrown.Loc, Rejected, thrown.Value, APIReject)
			case handler == passThrough:
				// No handler for this path: the derived promise repeats
				// the outcome (value or reason) unchanged.
				if state == Rejected {
					r.derived.settle(loc.Internal, Rejected, p.value, APIReject)
				} else {
					r.derived.settle(loc.Internal, Fulfilled, p.value, APIResolve)
				}
			default:
				r.derived.Resolve(loc.Internal, ret)
			}
		}
	}
	d := p.loop.NewDispatch()
	d.API = api
	d.RegSeq = regSeq
	d.Obj = p.Ref()
	d.TriggerSeq = p.settleTrig
	p.loop.SchedulePromiseJob(handler, []vm.Value{p.value}, d, after)
}
