package asyncgraph

import (
	"fmt"
	"runtime"

	"asyncg/internal/events"
	"asyncg/internal/instrument"
	"asyncg/internal/loc"
	"asyncg/internal/promise"
	"asyncg/internal/vm"
)

// renderValue stringifies a settlement value for graph display,
// truncated to keep node labels readable.
func renderValue(v vm.Value) string {
	s := vm.ToString(v)
	if len(s) > 120 {
		s = s[:117] + "..."
	}
	return s
}

// captureStack resolves the current call stack into display frames for
// creation-site provenance (the debug-stacks mode of async stack
// traces). Capturing and resolving frames on every tracked API call is
// deliberate, measured overhead — which is why Config.DebugStacks is
// opt-in.
func captureStack() []string {
	var pcs [24]uintptr
	n := runtime.Callers(3, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	out := make([]string, 0, n)
	for {
		f, more := frames.Next()
		out = append(out, fmt.Sprintf("%s (%s:%d)", f.Function, f.File, f.Line))
		if !more {
			break
		}
	}
	return out
}

// Config selects what the builder tracks beyond the API families it
// always covers (emitters, timers, immediates, nextTick, and I/O).
// Disabling promise tracking reproduces the paper's "nopromise"
// evaluation setting of Fig. 6(a).
type Config struct {
	// Promises tracks promise creation, settlement, and reactions.
	Promises bool
	// ChainAnalysis maintains per-settlement promise-chain bookkeeping
	// (walking the chain on every settle, as the tool's on-the-fly
	// promise analyses do). It is the costly part of promise tracking
	// and exists as an explicit knob for the overhead ablation.
	ChainAnalysis bool
	// DebugStacks captures the Go call stack (runtime.Callers, resolved
	// to display frames) at every promise/emitter creation, trigger, and
	// callback registration, attaching it to the created node
	// (Node.Stack) so provenance chains can show *where in the program*
	// each hop originated. Off by default: capture + symbolization on
	// every tracked API call is the dominant cost of the mode (see
	// EXPERIMENTS.md), exactly like the WithDebugMode promise-stack
	// capture of real event-loop libraries.
	DebugStacks bool
}

// DefaultConfig tracks everything; DebugStacks stays opt-in.
func DefaultConfig() Config {
	return Config{Promises: true, ChainAnalysis: true}
}

// pendingCR is one entry of the paper's L_pending lists: a registration
// awaiting executions. Entries for one callback form a singly-linked
// list in registration order (the list head lives in Builder.pending),
// so appending and unlinking never allocate; retired entries return to
// the builder's free list.
type pendingCR struct {
	node  *Node
	reg   vm.Registration
	api   string
	obj   vm.ObjRef
	event string
	next  *pendingCR
}

// frame is one shadow-stack entry.
type frame struct {
	fn *vm.Function
	ce NodeID // CE node for this invocation, or NoNode
}

// Builder constructs the Async Graph of a running program from probe
// events. It implements vm.Hooks; attach it to a loop's probes before the
// events you want captured (it may be attached and detached mid-run).
//
// The construction follows the paper's algorithms: Algorithm 1 delimits
// event-loop ticks with a shadow stack (a tick begins when the stack is
// empty and is committed, if non-empty, when the outermost frame pops);
// Algorithm 2 turns async-API calls into CR nodes and pending-list
// entries; Algorithm 3 maps each callback execution to its registration
// with a context validator and draws the causal and binding edges.
type Builder struct {
	cfg Config
	g   *Graph

	sstack  []frame
	curTick *Tick

	pending  map[*vm.Function]*pendingCR
	byRegSeq map[uint64]*pendingCR
	ctByTrig map[uint64]NodeID
	pcrFree  *pendingCR

	// chainUp records, for ChainAnalysis, each promise's upstream
	// promise in the chain (derived → source).
	chainUp map[uint64]uint64

	// labels interns rendered node labels: a hot call site (a server
	// handler registering the same callback per request, a loop
	// resolving promises at one line) renders its label once instead of
	// re-running fmt.Sprintf per node.
	labels map[labelKey]string
	// countLabels interns the per-object "P%d"/"E%d[:name]" labels: the
	// object counters restart at every Reset, so a stream of runs keeps
	// re-rendering the same small id set.
	countLabels map[countKey]string

	promiseCount int
	emitterCount int
	anomalies    []string
}

// labelKey identifies one distinct rendered label: the form
// (registration / trigger / execution) plus the attributes the
// rendering reads.
type labelKey struct {
	form  byte // 'r' registration, 't' trigger, 'e' execution
	api   string
	event string
	fn    string
	loc   loc.Loc
}

// countKey identifies one rendered per-object label.
type countKey struct {
	form byte // 'P' promise, 'E' emitter
	n    int
	name string
}

// NewBuilder creates a builder with the given config.
func NewBuilder(cfg Config) *Builder {
	return &Builder{
		cfg:      cfg,
		g:        NewGraph(),
		sstack:   make([]frame, 0, 16),
		pending:  make(map[*vm.Function]*pendingCR, 32),
		byRegSeq: make(map[uint64]*pendingCR, 32),
		ctByTrig: make(map[uint64]NodeID, 32),
		chainUp:  make(map[uint64]uint64, 32),
		labels:   make(map[labelKey]string, 32),

		countLabels: make(map[countKey]string, 16),
	}
}

// cachedCountLabel interns "P%d"/"E%d[:name]" renderings.
func (b *Builder) cachedCountLabel(form byte, n int, name string) string {
	key := countKey{form: form, n: n, name: name}
	if s, ok := b.countLabels[key]; ok {
		return s
	}
	var s string
	if name != "" {
		s = fmt.Sprintf("%c%d:%s", form, n, name)
	} else {
		s = fmt.Sprintf("%c%d", form, n)
	}
	b.countLabels[key] = s
	return s
}

// cachedTriggerLabel interns triggerLabel renderings.
func (b *Builder) cachedTriggerLabel(ev *vm.APIEvent) string {
	key := labelKey{form: 't', api: ev.API, event: ev.Event, loc: ev.Loc}
	if s, ok := b.labels[key]; ok {
		return s
	}
	s := triggerLabel(ev)
	b.labels[key] = s
	return s
}

// cachedRegistrationLabel interns registrationLabel renderings.
func (b *Builder) cachedRegistrationLabel(ev *vm.APIEvent) string {
	key := labelKey{form: 'r', api: ev.API, event: ev.Event, loc: ev.Loc}
	if s, ok := b.labels[key]; ok {
		return s
	}
	s := registrationLabel(ev)
	b.labels[key] = s
	return s
}

// cachedExecutionLabel interns CE-node labels ("L12: handler").
func (b *Builder) cachedExecutionLabel(at loc.Loc, name string) string {
	key := labelKey{form: 'e', fn: name, loc: at}
	if s, ok := b.labels[key]; ok {
		return s
	}
	s := fmt.Sprintf("%s: %s", at.Short(), name)
	b.labels[key] = s
	return s
}

// Graph returns the graph built so far. It keeps growing while the
// builder stays attached.
func (b *Builder) Graph() *Graph { return b.g }

// Reset returns the builder (and its graph) to the empty state while
// retaining every allocation: node/tick/pending free lists, map buckets,
// and the interned-label cache, which is keyed by source location and
// stays valid across runs of the same program. The previously built
// graph becomes invalid — callers must be done with it first.
func (b *Builder) Reset() {
	// Live pending entries sit in the per-callback lists; walk them back
	// into the free list before dropping the maps.
	for _, head := range b.pending {
		for cr := head; cr != nil; {
			next := cr.next
			b.recyclePCR(cr)
			cr = next
		}
	}
	clear(b.pending)
	clear(b.byRegSeq)
	clear(b.ctByTrig)
	clear(b.chainUp)
	for i := range b.sstack {
		b.sstack[i] = frame{}
	}
	b.sstack = b.sstack[:0]
	if b.curTick != nil {
		b.g.recycleTick(b.curTick)
		b.curTick = nil
	}
	b.promiseCount = 0
	b.emitterCount = 0
	b.anomalies = nil
	b.g.Reset()
}

// borrowPCR returns a cleared pending entry from the free list.
func (b *Builder) borrowPCR() *pendingCR {
	if cr := b.pcrFree; cr != nil {
		b.pcrFree = cr.next
		cr.next = nil
		return cr
	}
	return &pendingCR{}
}

// recyclePCR clears an unlinked pending entry and returns it to the
// free list. The caller must have removed it from pending and byRegSeq.
func (b *Builder) recyclePCR(cr *pendingCR) {
	*cr = pendingCR{next: b.pcrFree}
	b.pcrFree = cr
}

// Anomalies returns validator mismatches (executions whose scheduling
// context did not validate against the registration the runtime
// reported). A correct simulator produces none.
func (b *Builder) Anomalies() []string { return b.anomalies }

// NodeByRegSeq returns the CR node for a registration sequence, or nil.
func (b *Builder) NodeByRegSeq(seq uint64) *Node {
	if cr, ok := b.byRegSeq[seq]; ok {
		return cr.node
	}
	return nil
}

// NodeByTrigSeq returns the CT node for a trigger sequence, or NoNode
// (implicit engine-internal triggers have no ★ node).
func (b *Builder) NodeByTrigSeq(seq uint64) NodeID {
	if id, ok := b.ctByTrig[seq]; ok {
		return id
	}
	return NoNode
}

// EnclosingCE returns the CE node of the innermost executing callback,
// or NoNode.
func (b *Builder) EnclosingCE() NodeID {
	for i := len(b.sstack) - 1; i >= 0; i-- {
		if b.sstack[i].ce != NoNode {
			return b.sstack[i].ce
		}
	}
	return NoNode
}

// tracked reports whether the builder's config covers the API.
func (b *Builder) tracked(api string) bool {
	return b.cfg.Promises || instrument.Categorize(api) != instrument.CatPromise
}

// ensureTick guards against API events arriving outside any tracked
// invocation (e.g. the builder attached mid-callback).
func (b *Builder) ensureTick(phase string) *Tick {
	if b.curTick == nil {
		if phase == "" {
			phase = "main"
		}
		b.curTick = b.g.blankTick(phase)
	}
	return b.curTick
}

// newNode adds a node to the graph and the current tick, drawing the
// happens-in edge (○→) from the enclosing callback execution.
func (b *Builder) newNode(n *Node, phase string) *Node {
	tick := b.ensureTick(phase)
	b.g.addNode(n)
	tick.Nodes = append(tick.Nodes, n.ID)
	if enc := b.EnclosingCE(); enc != NoNode && n.Kind != CE {
		b.g.AddEdge(enc, n.ID, EdgeDirect, "")
	}
	return n
}

// APICall implements vm.Hooks: Algorithm 2 plus OB/CT/relation handling.
func (b *Builder) APICall(ev *vm.APIEvent) {
	if !b.tracked(ev.API) {
		return
	}
	switch ev.API {
	case promise.APICreate:
		b.addPromiseOB(ev)
		return
	case events.APINew:
		b.addEmitterOB(ev)
		return
	case promise.APILink:
		// The promise returned from a then callback joins the chain:
		// △⇠link⇠△.
		b.g.AddEdge(b.g.ObjNode(ev.Receiver.ID), b.relatedOB(ev, 0), EdgeRelation, "link")
		if b.cfg.ChainAnalysis && len(ev.Related) > 0 {
			b.chainUp[ev.Related[0].ID] = ev.Receiver.ID
		}
		return
	case "clearTimeout", "clearInterval", "clearImmediate",
		events.APIRemoveListener, events.APIRemoveAllListeners:
		for _, reg := range ev.Regs {
			b.retire(reg.Seq)
		}
		return
	case promise.APIPassthrough:
		return // engine-internal plumbing: not part of the model
	}

	if ev.TriggerSeq != 0 {
		b.addTrigger(ev)
		return
	}
	if len(ev.Regs) > 0 {
		b.addRegistration(ev)
		return
	}
	// A handler-less then/catch still extends the promise chain.
	if len(ev.Related) > 0 && ev.Receiver.Kind == vm.ObjPromise {
		b.g.AddEdge(b.g.ObjNode(ev.Receiver.ID), b.relatedOB(ev, 0), EdgeRelation, ev.Event)
		if b.cfg.ChainAnalysis {
			b.chainUp[ev.Related[0].ID] = ev.Receiver.ID
		}
	}
}

// addPromiseOB creates the △ node for a new promise and relation edges
// for combinator inputs.
func (b *Builder) addPromiseOB(ev *vm.APIEvent) {
	b.promiseCount++
	n := b.g.blankNode()
	n.Kind = OB
	n.Loc = ev.Loc
	n.API = ev.API
	n.Event = ev.Event
	n.Obj = ev.Receiver
	n.Label = b.cachedCountLabel('P', b.promiseCount, "")
	b.newNode(n, "")
	if b.cfg.DebugStacks {
		n.Stack = captureStack()
	}
	for _, in := range ev.Related {
		b.g.AddEdge(b.g.ObjNode(in.ID), n.ID, EdgeRelation, ev.Event)
		if b.cfg.ChainAnalysis {
			b.chainUp[ev.Receiver.ID] = in.ID
		}
	}
}

// addEmitterOB creates the △ node for a new emitter.
func (b *Builder) addEmitterOB(ev *vm.APIEvent) {
	b.emitterCount++
	var name string
	if len(ev.Args) > 0 {
		if s, ok := ev.Args[0].(string); ok {
			name = s
		}
	}
	n := b.g.blankNode()
	n.Kind = OB
	n.Loc = ev.Loc
	n.API = ev.API
	n.Obj = ev.Receiver
	n.Label = b.cachedCountLabel('E', b.emitterCount, name)
	b.newNode(n, "")
	if b.cfg.DebugStacks {
		n.Stack = captureStack()
	}
}

// addTrigger creates the ★ node for an emit / resolve / reject. Implicit
// settles performed by the engine (derived-promise resolution from a
// handler result) carry an internal location and get no ★ node — the
// paper only stars explicit trigger API uses; the downstream execution
// then falls back to the □→○ causal edge.
func (b *Builder) addTrigger(ev *vm.APIEvent) {
	if ev.Loc.IsInternal() {
		if b.cfg.ChainAnalysis && ev.Receiver.Kind == vm.ObjPromise {
			b.walkChain(ev.Receiver.ID)
		}
		return
	}
	n := b.g.blankNode()
	n.Kind = CT
	n.Loc = ev.Loc
	n.API = ev.API
	n.Event = ev.Event
	n.Obj = ev.Receiver
	n.TrigSeq = ev.TriggerSeq
	n.Label = b.cachedTriggerLabel(ev)
	b.newNode(n, "")
	b.ctByTrig[ev.TriggerSeq] = n.ID
	if b.cfg.DebugStacks {
		n.Stack = captureStack()
	}
	if b.cfg.ChainAnalysis && ev.Receiver.Kind == vm.ObjPromise && len(ev.Args) > 0 {
		n.ValueStr = renderValue(ev.Args[0])
	}
	// Tie the trigger to its object for readability (emit('x') ⇠ E1).
	if ob := b.g.ObjNode(ev.Receiver.ID); ob != NoNode {
		b.g.AddEdge(n.ID, ob, EdgeRelation, ev.Event)
	}
	if b.cfg.ChainAnalysis && ev.Receiver.Kind == vm.ObjPromise {
		b.walkChain(ev.Receiver.ID)
	}
}

// walkChain traverses a promise's upstream chain. The traversal result
// feeds the tool's on-the-fly promise analyses; its cost is what the
// ChainAnalysis knob toggles.
func (b *Builder) walkChain(id uint64) int {
	depth := 0
	for cur, ok := b.chainUp[id]; ok && depth < 1024; cur, ok = b.chainUp[cur] {
		depth++
	}
	return depth
}

// addRegistration creates the □ node for a callback-registering API use
// (Algorithm 2) and pushes pending entries for Algorithm 3.
func (b *Builder) addRegistration(ev *vm.APIEvent) {
	n := b.g.blankNode()
	n.Kind = CR
	n.Loc = ev.Loc
	n.API = ev.API
	n.Event = ev.Event
	n.Obj = ev.Receiver
	n.RegSeq = ev.Regs[0].Seq
	n.Func = ev.Regs[0].Callback.Name
	n.Label = b.cachedRegistrationLabel(ev)
	b.newNode(n, "")
	for _, reg := range ev.Regs {
		cr := b.borrowPCR()
		cr.node, cr.reg, cr.api, cr.obj, cr.event = n, reg, ev.API, ev.Receiver, ev.Event
		// Append at the list tail: L_pending keeps registration order.
		if head := b.pending[reg.Callback]; head == nil {
			b.pending[reg.Callback] = cr
		} else {
			for head.next != nil {
				head = head.next
			}
			head.next = cr
		}
		b.byRegSeq[reg.Seq] = cr
	}
	if b.cfg.DebugStacks {
		n.Stack = captureStack()
	}
	// Relation edges to bound objects: listener-on-emitter
	// (□⇠'connection'⇠△) and promise-chain edges (△⇠then⇠△).
	if ob := b.g.ObjNode(ev.Receiver.ID); ob != NoNode {
		b.g.AddEdge(n.ID, ob, EdgeRelation, ev.Event)
	}
	if len(ev.Related) > 0 && ev.Receiver.Kind == vm.ObjPromise {
		b.g.AddEdge(b.g.ObjNode(ev.Receiver.ID), b.relatedOB(ev, 0), EdgeRelation, ev.Event)
		if b.cfg.ChainAnalysis {
			b.chainUp[ev.Related[0].ID] = ev.Receiver.ID
		}
	}
}

// retire drops a registration whose callback can no longer fire
// (clearTimeout, removeListener).
func (b *Builder) retire(seq uint64) {
	cr, ok := b.byRegSeq[seq]
	if !ok {
		return
	}
	cr.node.Removed = true
	delete(b.byRegSeq, seq)
	var prev *pendingCR
	for entry := b.pending[cr.reg.Callback]; entry != nil; prev, entry = entry, entry.next {
		if entry == cr {
			if prev == nil {
				b.pending[cr.reg.Callback] = entry.next
			} else {
				prev.next = entry.next
			}
			b.recyclePCR(cr)
			break
		}
	}
}

func (b *Builder) relatedOB(ev *vm.APIEvent, i int) NodeID {
	if i >= len(ev.Related) {
		return NoNode
	}
	return b.g.ObjNode(ev.Related[i].ID)
}

// FunctionEnter implements vm.Hooks: Algorithm 1 (tick delimitation) and
// Algorithm 3 (execution-to-registration mapping).
func (b *Builder) FunctionEnter(fn *vm.Function, info *vm.CallInfo) {
	if len(b.sstack) == 0 {
		if !info.TopLevel {
			// Attached in the middle of a tick: as in the paper, wait
			// for the current tick to finish and construct the shadow
			// stack from the following one.
			return
		}
		// A new tick starts whenever the shadow stack is empty; its
		// type is the loop phase under which the callback runs
		// (Algorithm 1, getIterType).
		b.curTick = b.g.blankTick(info.Phase)
	}
	ce := NoNode
	d := info.Dispatch
	if d != nil && d.API != "main" && d.API != promise.APIPassthrough && b.tracked(d.API) {
		if cr := b.matchPending(fn, info); cr != nil {
			ce = b.executeCR(cr, fn, info)
			if cr.reg.Once {
				// matchPending unlinked a once-registration; its fields
				// are consumed, so the entry can go back to the pool.
				b.recyclePCR(cr)
			}
		}
	}
	b.sstack = append(b.sstack, frame{fn: fn, ce: ce})
}

// matchPending runs the context validator over L_pending[fn] and returns
// the matching registration, removing it if it fires once.
func (b *Builder) matchPending(fn *vm.Function, info *vm.CallInfo) *pendingCR {
	var prev *pendingCR
	for cr := b.pending[fn]; cr != nil; prev, cr = cr, cr.next {
		if !b.validate(cr, info) {
			continue
		}
		if cr.reg.Once {
			if prev == nil {
				b.pending[fn] = cr.next
			} else {
				prev.next = cr.next
			}
			cr.next = nil
			delete(b.byRegSeq, cr.reg.Seq)
		}
		return cr
	}
	// The runtime claims a registration we either never saw (attached
	// late) or failed to validate (a real anomaly).
	if d := info.Dispatch; d.RegSeq != 0 {
		if cr, ok := b.byRegSeq[d.RegSeq]; ok {
			b.anomalies = append(b.anomalies,
				fmt.Sprintf("validator rejected %s for %s (reg %d)", cr.api, fn, d.RegSeq))
		}
	}
	return nil
}

// validate is the paper's context validator: it checks that the current
// execution context (tick type, bound object, event name) matches the
// pending registration. When the dispatch carries the runtime's own
// registration sequence, it must agree — a disagreement is an anomaly,
// not a match.
func (b *Builder) validate(cr *pendingCR, info *vm.CallInfo) bool {
	d := info.Dispatch
	if d.RegSeq != 0 && d.RegSeq != cr.reg.Seq {
		return false
	}
	switch cr.reg.Phase {
	case events.PhaseAny:
		// Emitter listeners run synchronously under any tick; match on
		// the emitter identity and event name.
		return d.Obj == cr.obj && d.Event == cr.event
	case "sync":
		// Immediately-invoked callbacks (promise executors, async
		// function bodies): match on API and object.
		return d.API == cr.api && (cr.obj.IsZero() || d.Obj == cr.obj)
	default:
		if info.Phase != cr.reg.Phase {
			return false
		}
		if !cr.obj.IsZero() && d.Obj != cr.obj {
			return false
		}
		return true
	}
}

// executeCR creates the ○ node for an execution mapped to cr, with the
// binding edge (○⇠□) and the causal edge (★→○ when a trigger caused the
// execution, □→○ otherwise) — Algorithm 3.
func (b *Builder) executeCR(cr *pendingCR, fn *vm.Function, info *vm.CallInfo) NodeID {
	name := fn.Name
	if name == "" {
		name = "anonymous"
	}
	n := b.g.blankNode()
	n.Kind = CE
	n.Loc = fn.Loc
	n.API = cr.api
	n.Event = cr.event
	n.Obj = cr.obj
	n.Func = fn.Name
	n.Label = b.cachedExecutionLabel(fn.Loc, name)
	b.newNode(n, info.Phase)
	cr.node.Executions++
	b.g.AddEdge(n.ID, cr.node.ID, EdgeBinding, "")
	if ct, ok := b.ctByTrig[info.Dispatch.TriggerSeq]; ok && info.Dispatch.TriggerSeq != 0 {
		b.g.AddEdge(ct, n.ID, EdgeDirect, "")
	} else {
		b.g.AddEdge(cr.node.ID, n.ID, EdgeDirect, "")
	}
	if enc := b.EnclosingCE(); enc != NoNode {
		b.g.AddEdge(enc, n.ID, EdgeDirect, "")
	}
	return n.ID
}

// FunctionExit implements vm.Hooks: it pops the shadow stack and commits
// the tick when the outermost frame exits (Algorithm 1).
func (b *Builder) FunctionExit(fn *vm.Function, ret vm.Value, thrown *vm.Thrown) {
	if len(b.sstack) == 0 {
		return // attached mid-invocation: ignore the unmatched exit
	}
	top := b.sstack[len(b.sstack)-1]
	if top.fn != fn {
		b.anomalies = append(b.anomalies,
			fmt.Sprintf("shadow stack mismatch: popped %s, expected %s", fn, top.fn))
	}
	b.sstack = b.sstack[:len(b.sstack)-1]
	if len(b.sstack) == 0 && b.curTick != nil {
		if len(b.curTick.Nodes) > 0 {
			b.commitTick()
		}
		b.curTick = nil
	}
}

func (b *Builder) commitTick() {
	t := b.curTick
	t.Index = len(b.g.Ticks) + 1
	for _, id := range t.Nodes {
		b.g.Nodes[id].Tick = t.Index
	}
	b.g.Ticks = append(b.g.Ticks, t)
}

// triggerLabel renders ★ labels like "L15: emit('foo')" or "L3: resolve".
func triggerLabel(ev *vm.APIEvent) string {
	switch ev.API {
	case events.APIEmit:
		return fmt.Sprintf("%s: emit('%s')", ev.Loc.Short(), ev.Event)
	case promise.APIResolve:
		return fmt.Sprintf("%s: resolve", ev.Loc.Short())
	case promise.APIReject:
		return fmt.Sprintf("%s: reject", ev.Loc.Short())
	default:
		return fmt.Sprintf("%s: %s", ev.Loc.Short(), ev.API)
	}
}

// registrationLabel renders □ labels like "L7: createServer",
// "L9: on('foo')", "L5: nextTick".
func registrationLabel(ev *vm.APIEvent) string {
	name := ev.API
	switch ev.API {
	case "process.nextTick":
		name = "nextTick"
	case events.APIOn:
		name = fmt.Sprintf("on('%s')", ev.Event)
	case events.APIOnce:
		name = fmt.Sprintf("once('%s')", ev.Event)
	case events.APIPrepend:
		name = fmt.Sprintf("prependListener('%s')", ev.Event)
	case events.APIPrependOnce:
		name = fmt.Sprintf("prependOnceListener('%s')", ev.Event)
	case promise.APIThen:
		name = "then"
	case promise.APICatch:
		name = "catch"
	case promise.APIFinally:
		name = "finally"
	case promise.APIExecutor:
		name = "Promise"
	case promise.APIAsync:
		name = "async"
	case promise.APIAwait:
		name = "await"
	}
	return fmt.Sprintf("%s: %s", ev.Loc.Short(), name)
}
