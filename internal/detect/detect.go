package detect

import (
	"sort"
	"strconv"

	"asyncg/internal/asyncgraph"
	"asyncg/internal/vm"
)

// Category is the typed identity of a warning's bug class. It aliases
// the graph-level type so detector findings and report filters share one
// vocabulary; using the constants below (rather than bare strings) means
// a typo'd category is a compile error, not a silently-empty filter.
type Category = asyncgraph.Category

// Warning categories, one per bug class of the paper's §VI.
const (
	CatRecursiveMicrotask   Category = "recursive-microtask"
	CatMicroStarvation      Category = "microtask-starvation"
	CatMixedAPIs            Category = "mixing-similar-apis"
	CatTimeoutOrder         Category = "unexpected-timeout-order"
	CatDeadListener         Category = "dead-listener"
	CatDeadEmit             Category = "dead-emit"
	CatInvalidRemoval       Category = "invalid-listener-removal"
	CatDuplicateListener    Category = "duplicate-listener"
	CatListenerInListener   Category = "add-listener-within-listener"
	CatDeadPromise          Category = "dead-promise"
	CatMissingReaction      Category = "missing-reaction"
	CatMissingRejectHandler Category = "missing-reject-handler"
	CatMissingReturn        Category = "missing-return"
	CatDoubleSettle         Category = "double-settle"
	CatExpectSyncCallback   Category = "expect-sync-callback"
	CatBrokenChain          Category = "broken-promise-chain"
)

// Family groups warning categories by the detector subsystem that emits
// them — the paper's §VI section structure.
type Family string

// Detector families.
const (
	FamilyScheduling Family = "scheduling"
	FamilyEmitter    Family = "emitter"
	FamilyPromise    Family = "promise"
	FamilyRace       Family = "race"
)

// families maps every known category to its detector family.
var families = map[Category]Family{
	CatRecursiveMicrotask:   FamilyScheduling,
	CatMicroStarvation:      FamilyScheduling,
	CatMixedAPIs:            FamilyScheduling,
	CatTimeoutOrder:         FamilyScheduling,
	CatDeadListener:         FamilyEmitter,
	CatDeadEmit:             FamilyEmitter,
	CatInvalidRemoval:       FamilyEmitter,
	CatDuplicateListener:    FamilyEmitter,
	CatListenerInListener:   FamilyEmitter,
	CatExpectSyncCallback:   FamilyEmitter,
	CatDeadPromise:          FamilyPromise,
	CatMissingReaction:      FamilyPromise,
	CatMissingRejectHandler: FamilyPromise,
	CatMissingReturn:        FamilyPromise,
	CatDoubleSettle:         FamilyPromise,
	CatBrokenChain:          FamilyPromise,
	CatRace:                 FamilyRace,
}

// FamilyOf returns the detector family of a category, or "" for unknown
// categories (e.g. manual §VI-B query labels).
func FamilyOf(c Category) Family { return families[c] }

// Categories returns every category of a family, or all known categories
// when family is "". The result is sorted for stable iteration.
func Categories(family Family) []Category {
	var out []Category
	for c, f := range families {
		if family == "" || f == family {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Thresholds of the scheduling detectors.
const (
	// RecursiveMicroThreshold is the number of consecutive
	// self-reschedules of the same callback in micro-task ticks before
	// warning. The paper warns from the first recursive tick.
	RecursiveMicroThreshold = 1
	// MicroStarvationThreshold is the number of consecutive micro-task
	// ticks (without a macro phase in between) before a starvation
	// warning, catching recursion cycles that alternate callbacks.
	MicroStarvationThreshold = 1000
)

// Config enables detector families.
type Config struct {
	Scheduling bool
	Emitters   bool
	Promises   bool
	// Races enables the experimental race detector (the paper's §IX
	// ongoing work) over state.Cell accesses.
	Races bool
}

// DefaultConfig enables everything with the paper's behaviour.
func DefaultConfig() Config {
	return Config{
		Scheduling: true,
		Emitters:   true,
		Promises:   true,
		Races:      true,
	}
}

// aframe is one analyzer shadow-stack entry.
type aframe struct {
	fn       *vm.Function
	dispatch *vm.Dispatch
	// floats lists promises created during this reaction frame
	// (broken-chain candidates); only tracked for promise reactions.
	floats []uint64
}

// Analyzer implements vm.Hooks and accumulates warnings into the
// builder's graph.
type Analyzer struct {
	cfg Config
	b   *asyncgraph.Builder
	g   *asyncgraph.Graph

	stack []aframe

	sched    *schedState
	emitters map[uint64]*emState
	promises map[uint64]*pState
	races    *raceState

	regRole    map[uint64]string
	regDerived map[uint64]uint64 // reaction regSeq → derived promise id
	mrCands    []mrCandidate     // missing-return candidates
	bcCands    []bcCandidate     // broken-chain candidates

	// emFree and pFree recycle per-object state records across Reset.
	emFree []*emState
	pFree  []*pState

	// pSorted is sortedPromises' reusable scratch (pointers into
	// a.promises; rebuilt every call).
	pSorted []*pState

	// msgCache interns warning messages of the prefix+%q(event)+suffix
	// shape. It deliberately survives Reset: reused analyzers re-derive
	// the same warnings run after run, and re-rendering the identical
	// message each run was a measurable share of the steady-state
	// allocation profile of schedule exploration. A starving program
	// re-derives its recursive micro-task warning on every reschedule,
	// hundreds of times per run.
	msgCache map[msgKey]string

	finished bool
}

// msgKey identifies one interned warning message: the site's fixed
// prefix plus the one or two dynamic parts interpolated into it.
type msgKey struct {
	prefix string
	event  string
	extra  string
}

// internMsg renders prefix+%q(event)+suffix, caching the result so a
// reused analyzer allocates each distinct message once.
func (a *Analyzer) internMsg(prefix, event, suffix string) string {
	k := msgKey{prefix: prefix, event: event}
	if m, ok := a.msgCache[k]; ok {
		return m
	}
	if a.msgCache == nil {
		a.msgCache = make(map[msgKey]string)
	}
	m := prefix + strconv.Quote(event) + suffix
	a.msgCache[k] = m
	return m
}

// internRemovalMsg renders the invalid-removal message, byte-identical
// to fmt.Sprintf("removeListener(%q, %s) did not match ...", event,
// name), through the same cache.
func (a *Analyzer) internRemovalMsg(event, name string) string {
	k := msgKey{prefix: "removeListener", event: event, extra: name}
	if m, ok := a.msgCache[k]; ok {
		return m
	}
	if a.msgCache == nil {
		a.msgCache = make(map[msgKey]string)
	}
	m := "removeListener(" + strconv.Quote(event) + ", " + name +
		") did not match any registered listener: the function passed is not the one that was registered"
	a.msgCache[k] = m
	return m
}

// internRecursiveMsg renders the recursive micro-task message,
// byte-identical to fmt.Sprintf("callback %q recursively reschedules
// itself with %s: ...", fn, api), through the same cache.
func (a *Analyzer) internRecursiveMsg(fn, api string) string {
	k := msgKey{prefix: "recursive", event: fn, extra: api}
	if m, ok := a.msgCache[k]; ok {
		return m
	}
	if a.msgCache == nil {
		a.msgCache = make(map[msgKey]string)
	}
	m := "callback " + strconv.Quote(fn) + " recursively reschedules itself with " + api +
		": micro-tasks have priority over all other phases and will starve the event loop"
	a.msgCache[k] = m
	return m
}

// NewAnalyzer creates an analyzer bound to the builder whose graph it
// annotates. Attach the builder to the probes before the analyzer.
func NewAnalyzer(b *asyncgraph.Builder, cfg Config) *Analyzer {
	return &Analyzer{
		cfg:        cfg,
		b:          b,
		g:          b.Graph(),
		sched:      newSchedState(),
		emitters:   make(map[uint64]*emState),
		promises:   make(map[uint64]*pState),
		races:      newRaceState(),
		regRole:    make(map[uint64]string),
		regDerived: make(map[uint64]uint64),
	}
}

// Reset returns the analyzer to its initial state while retaining its
// allocation set (per-object state records, map buckets, scratch
// slices), so one analyzer serves a whole stream of runs. The graph it
// annotates is reset separately (Builder.Reset).
func (a *Analyzer) Reset() {
	for i := range a.stack {
		a.stack[i] = aframe{}
	}
	a.stack = a.stack[:0]
	a.sched.reset()
	for _, st := range a.emitters {
		st.name = ""
		for ev, ls := range st.listeners {
			for i := range ls {
				ls[i] = emListener{}
			}
			st.listeners[ev] = ls[:0]
		}
		a.emFree = append(a.emFree, st)
	}
	clear(a.emitters)
	for _, st := range a.promises {
		children := st.children
		for i := range children {
			children[i] = 0
		}
		*st = pState{}
		st.children = children[:0]
		a.pFree = append(a.pFree, st)
	}
	clear(a.promises)
	a.races.reset()
	clear(a.regRole)
	clear(a.regDerived)
	for i := range a.mrCands {
		a.mrCands[i] = mrCandidate{}
	}
	a.mrCands = a.mrCands[:0]
	for i := range a.bcCands {
		a.bcCands[i] = bcCandidate{}
	}
	a.bcCands = a.bcCands[:0]
	a.finished = false
}

// Warnings returns the findings so far (including post-hoc ones after
// Finish).
func (a *Analyzer) Warnings() []asyncgraph.Warning { return a.g.Warnings }

// WarningsOf returns the findings in the given category.
func (a *Analyzer) WarningsOf(category Category) []asyncgraph.Warning {
	var out []asyncgraph.Warning
	for _, w := range a.g.Warnings {
		if w.Category == category {
			out = append(out, w)
		}
	}
	return out
}

// enclosingReaction returns the innermost frame dispatched as a promise
// reaction, or nil.
func (a *Analyzer) enclosingReaction() *aframe {
	for i := len(a.stack) - 1; i >= 0; i-- {
		d := a.stack[i].dispatch
		if d == nil {
			continue
		}
		switch a.regRole[d.RegSeq] {
		case "fulfill", "reject", "finally", "await":
			return &a.stack[i]
		}
	}
	return nil
}

// insideListenerOf reports whether a listener of the given emitter is
// currently executing.
func (a *Analyzer) insideListenerOf(emitterID uint64) bool {
	for i := len(a.stack) - 1; i >= 0; i-- {
		d := a.stack[i].dispatch
		if d != nil && d.Obj.Kind == vm.ObjEmitter && d.Obj.ID == emitterID {
			return true
		}
	}
	return false
}

// FunctionEnter implements vm.Hooks.
func (a *Analyzer) FunctionEnter(fn *vm.Function, info *vm.CallInfo) {
	if len(a.stack) == 0 && a.cfg.Scheduling {
		a.sched.tickStart(a, fn, info)
	}
	if d := info.Dispatch; d != nil {
		if a.cfg.Scheduling {
			a.sched.execution(a, d)
		}
		if a.cfg.Emitters {
			a.emitterExecution(d)
		}
	}
	a.stack = append(a.stack, aframe{fn: fn, dispatch: info.Dispatch})
}

// FunctionExit implements vm.Hooks.
func (a *Analyzer) FunctionExit(fn *vm.Function, ret vm.Value, thrown *vm.Thrown) {
	if len(a.stack) == 0 {
		return
	}
	top := a.stack[len(a.stack)-1]
	a.stack = a.stack[:len(a.stack)-1]
	if a.cfg.Promises && top.dispatch != nil {
		a.reactionExit(top, ret, thrown)
	}
	if len(a.stack) == 0 && a.cfg.Scheduling {
		a.sched.tickEnd(a)
	}
}

// APICall implements vm.Hooks.
func (a *Analyzer) APICall(ev *vm.APIEvent) {
	if a.cfg.Scheduling {
		a.sched.apiCall(a, ev)
	}
	if a.cfg.Emitters {
		a.emitterAPICall(ev)
	}
	if a.cfg.Promises {
		a.promiseAPICall(ev)
	}
	if a.cfg.Races {
		a.raceAPICall(ev)
	}
	for _, reg := range ev.Regs {
		a.regRole[reg.Seq] = reg.Role
	}
}

// Finish runs the post-hoc analyses over the completed graph and returns
// all warnings. It is idempotent.
func (a *Analyzer) Finish() []asyncgraph.Warning {
	if a.finished {
		return a.g.Warnings
	}
	a.finished = true
	if a.cfg.Emitters {
		a.finishEmitters()
	}
	if a.cfg.Promises {
		a.finishPromises()
	}
	if a.cfg.Races {
		a.finishRaces()
	}
	return a.g.Warnings
}
