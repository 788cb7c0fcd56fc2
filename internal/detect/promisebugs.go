package detect

import (
	"fmt"
	"sort"

	"asyncg/internal/asyncgraph"
	"asyncg/internal/loc"
	"asyncg/internal/promise"
	"asyncg/internal/vm"
)

// pState mirrors one promise, maintained purely from probe events.
type pState struct {
	id        uint64
	kind      string // "constructor", "then", "catch", "async", "all", ...
	createdAt loc.Loc
	settled   bool

	hasReaction bool // any then/catch/finally/await/combinator/adoption
	// valueConsumed: something observes the fulfillment *value* (a
	// fulfill handler, an await, a combinator, or adoption) — a
	// trailing catch alone does not consume the value.
	valueConsumed bool
	// createdWithReject: the registration that derived this promise
	// included a rejection handler ("catch", or then with onRejected).
	createdWithReject bool
	awaited           bool
	linked            bool

	parent   uint64
	children []uint64
}

// mrCandidate is a potential missing-return bug: a fulfillment handler
// that returned undefined.
type mrCandidate struct {
	derived uint64
	node    asyncgraph.NodeID // the CR node of the reaction
	at      loc.Loc
}

// bcCandidate is a potential broken-chain bug: a promise created inside
// a reaction whose handler returned undefined without linking it.
type bcCandidate struct {
	float   uint64 // the floating promise
	derived uint64 // the enclosing reaction's derived promise
	at      loc.Loc
}

func (a *Analyzer) promiseState(id uint64) *pState {
	st, ok := a.promises[id]
	if !ok {
		if n := len(a.pFree); n > 0 {
			st = a.pFree[n-1]
			a.pFree = a.pFree[:n-1]
		} else {
			st = &pState{}
		}
		st.id = id
		a.promises[id] = st
	}
	return st
}

// promiseAPICall processes promise-related API events.
func (a *Analyzer) promiseAPICall(ev *vm.APIEvent) {
	switch ev.API {
	case promise.APICreate:
		st := a.promiseState(ev.Receiver.ID)
		st.kind = ev.Event
		st.createdAt = ev.Loc
		// Combinator inputs are consumed by the combinator: they have a
		// reaction and their rejections are handled by the result.
		for _, in := range ev.Related {
			inSt := a.promiseState(in.ID)
			inSt.hasReaction = true
			inSt.valueConsumed = true
			inSt.children = append(inSt.children, ev.Receiver.ID)
			if st.parent == 0 {
				st.parent = in.ID
			}
		}
		// Broken-chain candidate collection: a promise born inside a
		// reaction frame may be a float. Derived promises of then/catch
		// are engine-made and excluded.
		if fr := a.enclosingReaction(); fr != nil {
			switch ev.Event {
			case "then", "catch", "finally":
			default:
				fr.floats = append(fr.floats, ev.Receiver.ID)
			}
		}

	case promise.APIThen, promise.APICatch, promise.APIFinally:
		src := a.promiseState(ev.Receiver.ID)
		src.hasReaction = true
		withReject := false
		for _, reg := range ev.Regs {
			switch reg.Role {
			case "reject":
				withReject = true
			case "fulfill":
				src.valueConsumed = true
			}
		}
		if ev.API == promise.APICatch {
			withReject = true
		}
		if len(ev.Related) > 0 {
			derived := a.promiseState(ev.Related[0].ID)
			derived.parent = ev.Receiver.ID
			derived.createdWithReject = withReject
			src.children = append(src.children, ev.Related[0].ID)
			for _, reg := range ev.Regs {
				a.regDerived[reg.Seq] = ev.Related[0].ID
			}
		}

	case promise.APIAwait:
		src := a.promiseState(ev.Receiver.ID)
		src.hasReaction = true
		src.valueConsumed = true
		src.awaited = true

	case promise.APIResolve, promise.APIReject:
		if ev.Receiver.Kind != vm.ObjPromise {
			return
		}
		st := a.promiseState(ev.Receiver.ID)
		if ev.Event == "already-settled" {
			// §VI-A.3(e): double resolve / reject.
			a.g.AddWarning(a.b.NodeByTrigSeq(ev.TriggerSeq), CatDoubleSettle,
				fmt.Sprintf("%s on an already-settled promise has no effect", shortSettle(ev.API)),
				ev.Loc)
			return
		}
		st.settled = true

	case promise.APILink:
		inner := a.promiseState(ev.Receiver.ID)
		inner.linked = true
		inner.hasReaction = true
		inner.valueConsumed = true
		if len(ev.Related) > 0 {
			inner.children = append(inner.children, ev.Related[0].ID)
		}
	}
}

func shortSettle(api string) string {
	if api == promise.APIReject {
		return "reject"
	}
	return "resolve"
}

// reactionExit collects missing-return and broken-chain candidates when
// a fulfillment handler returns.
func (a *Analyzer) reactionExit(fr aframe, ret vm.Value, thrown *vm.Thrown) {
	d := fr.dispatch
	role := a.regRole[d.RegSeq]
	if role != "fulfill" {
		return
	}
	derived := a.regDerived[d.RegSeq]
	if thrown != nil {
		return
	}
	if retP, ok := ret.(*promise.Promise); ok {
		// Returned promises join the chain; drop them from floats.
		for i, f := range fr.floats {
			if f == retP.ID() {
				fr.floats = append(fr.floats[:i], fr.floats[i+1:]...)
				break
			}
		}
		return
	}
	if !vm.IsUndefined(ret) {
		return
	}
	at := fr.fn.Loc
	if node := a.b.NodeByRegSeq(d.RegSeq); node != nil {
		a.mrCands = append(a.mrCands, mrCandidate{derived: derived, node: node.ID, at: at})
	} else {
		a.mrCands = append(a.mrCands, mrCandidate{derived: derived, node: asyncgraph.NoNode, at: at})
	}
	for _, f := range fr.floats {
		a.bcCands = append(a.bcCands, bcCandidate{float: f, derived: derived, at: at})
	}
}

// sortedPromises returns the promise states in object-id order, so
// post-hoc warnings are emitted deterministically run after run. The
// returned slice aliases the analyzer's scratch buffer, reused across
// runs; it is only valid until the next call.
func (a *Analyzer) sortedPromises() []*pState {
	out := a.pSorted[:0]
	for _, st := range a.promises {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	a.pSorted = out
	return out
}

// finishPromises runs the post-hoc promise analyses.
func (a *Analyzer) finishPromises() {
	ordered := a.sortedPromises()
	for _, st := range ordered {
		node := a.g.ObjNode(st.id)
		// §VI-A.3(a): dead promises — never settled. Warn on chain
		// roots only: a pending derived promise of a dead parent is a
		// consequence, not a cause.
		if !st.settled {
			parent, hasParent := a.promises[st.parent]
			if !hasParent || st.parent == 0 || parent.settled {
				a.g.AddWarning(node, CatDeadPromise,
					"promise was never resolved or rejected during this execution",
					st.createdAt)
			}
			continue
		}
		// §VI-A.3(b): settled promises no one ever reacts to. Derived
		// promises (then/catch/finally results) are excluded: an unused
		// chain end is the missing-reject-handler case below.
		if !st.hasReaction && !isDerivedKind(st.kind) {
			a.g.AddWarning(node, CatMissingReaction,
				fmt.Sprintf("promise (%s) settled but has no reaction: no then, catch, or await ever observes it", st.kind),
				st.createdAt)
		}
	}
	// §VI-A.3(c): every promise chain must end with a reject reaction.
	// The check is structural: no exception needs to be thrown.
	for _, st := range ordered {
		if len(st.children) > 0 || !isDerivedKind(st.kind) {
			continue
		}
		if st.kind == "catch" || st.createdWithReject || st.awaited {
			continue
		}
		a.g.AddWarning(a.g.ObjNode(st.id), CatMissingRejectHandler,
			"promise chain ends without a rejection handler: an exception in the chain would be silently lost",
			st.createdAt)
	}
	// §VI-A.3(d): fulfillment handlers that returned undefined while the
	// chain continues past their derived promise.
	for _, c := range a.mrCands {
		st, ok := a.promises[c.derived]
		if !ok {
			continue
		}
		if st.valueConsumed {
			a.g.AddWarning(c.node, CatMissingReturn,
				"then callback returns undefined but the chain continues: the next reaction receives undefined (missing return?)",
				c.at)
		}
	}
	// §VI-B.2: broken chains — a promise created inside a reaction,
	// neither returned nor awaited nor linked, while the handler
	// returned undefined.
	for _, c := range a.bcCands {
		st, ok := a.promises[c.float]
		if !ok || st.linked || st.awaited {
			continue
		}
		a.g.AddWarning(a.g.ObjNode(c.float), CatBrokenChain,
			"promise created inside a then callback but not returned: it is disconnected from the enclosing chain (broken promise chain)",
			c.at)
	}
}

// isDerivedKind reports whether the promise was produced by a chaining
// API rather than created by user code or a combinator.
func isDerivedKind(kind string) bool {
	switch kind {
	case "then", "catch", "finally":
		return true
	default:
		return false
	}
}
