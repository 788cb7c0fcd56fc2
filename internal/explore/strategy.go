package explore

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"strings"

	"asyncg/internal/eventloop"
)

// Names of the built-in strategies, as accepted by Spec.Strategy and
// reported by Result.Strategy.
const (
	// StrategyRandom draws every pick uniformly from its domain — the
	// fuzzing baseline. Run i uses seed base+i.
	StrategyRandom = "random"
	// StrategyDelay perturbs the default schedule by a bounded number of
	// non-zero picks per run (delay-bounded search: most
	// schedule-dependent bugs need only a few reorderings, so spending
	// the budget near the default schedule finds them with far fewer
	// runs than uniform sampling).
	StrategyDelay = "delay"
	// StrategyExhaustive enumerates the choice tree breadth-first,
	// visiting every reachable pick vector once, up to the run budget.
	// For small programs this provably covers the whole schedule space
	// (the Result.Exhausted flag reports whether it finished). With
	// partial-order reduction it skips sibling orders of commuting I/O
	// batches (see NewExhaustive).
	StrategyExhaustive = "exhaustive"
	// StrategyCoverage is the feedback-driven greybox walk: schedules
	// that discovered a new Async-Graph fingerprint join a corpus, and
	// later runs mutate corpus schedules (favoring recent discoveries)
	// instead of sampling blindly.
	StrategyCoverage = "coverage"
)

// PickFunc resolves one scheduling choice point of a single run: pos is
// the 0-based position in the run's pick sequence, kind the choice
// class, n the domain size (>= 2). Out-of-range returns are clamped to
// the default pick 0.
type PickFunc func(pos int, kind eventloop.ChoiceKind, n int) int

// PlanState is a Strategy's answer to "what should run i be?".
type PlanState int

const (
	// PlanReady: the returned PickFunc drives run i.
	PlanReady PlanState = iota
	// PlanWait: the strategy needs feedback from in-flight runs before
	// it can plan run i; the engine retries after the next Observe.
	PlanWait
	// PlanDone: the schedule space is finished; no run i will happen.
	PlanDone
)

// Feedback is what one completed run reports back to its strategy: the
// replay token, the raw pick/domain recording behind it, the
// independence flags for partial-order reduction, the run's WL
// fingerprint with its new-coverage flag, and the observable outcome.
type Feedback struct {
	// Index is the run's position in the exploration.
	Index int
	// Token replays the run (see Replay).
	Token string
	// Picks is the full recorded pick sequence (untrimmed, unlike the
	// token) and Domains the effective domain at each position (1 for
	// positions whose kind was not enabled).
	Picks   []int
	Domains []int
	// Independent flags positions that belong to a commuting permutation
	// batch: every element carried a distinct non-zero independence key,
	// so sibling picks at these positions yield equivalent executions.
	Independent []bool
	// Fingerprint is the run's canonical Async-Graph hash, and NewGraph
	// reports that no earlier run (in index order) produced it.
	Fingerprint string
	NewGraph    bool
	// Warnings, Err and Ticks mirror the RunResult fields.
	Warnings []string
	Err      string
	Ticks    int
}

// Strategy chooses which schedules to execute, using per-run feedback.
// It replaces the old closed string enum: a strategy is an object the
// engine converses with, not a label it switches on.
//
// The engine's contract, which holds for every worker count:
//
//   - Plan(i) is called with consecutive i starting at 0; each run is
//     dispatched at most once. Plan may be re-called with the same i
//     after answering PlanWait (it must keep answering consistently
//     until feedback arrives).
//   - Observe is called exactly once per completed run, strictly in
//     run-index order — with Workers=N a run's feedback may arrive
//     while later runs are already executing, but never before the
//     feedback of every earlier run.
//   - Plan and Observe are never called concurrently; strategies need
//     no locking. Successive calls may come from different goroutines,
//     though — whichever pool worker, or Run's caller, plans the next
//     run or hands in the next run in index order makes the call — so
//     a strategy must not depend on goroutine identity.
//
// For the Result to stay byte-identical across worker counts, Plan(i)
// must depend only on i and on feedback the strategy could also have
// seen sequentially — in practice: gate Plan on Observe counts (return
// PlanWait), never on wall-clock completion order.
//
// A Strategy instance is stateful and single-use: build a fresh one per
// exploration.
type Strategy interface {
	// Name labels the strategy in Result.Strategy and reports.
	Name() string
	// Plan returns run i's PickFunc, or directs the engine to wait for
	// feedback or stop planning (see PlanState).
	Plan(i int) (PickFunc, PlanState)
	// Observe delivers run i's feedback, in run-index order.
	Observe(fb Feedback)
}

// SpaceReporter is an optional Strategy extension for strategies that
// can prove they covered the whole schedule space (exhaustive); the
// engine copies the flag into Result.Exhausted.
type SpaceReporter interface {
	Exhausted() bool
}

// CoverageStats is the feedback-economy census a strategy can expose:
// how many schedules sit in its mutation corpus and how many sibling
// picks partial-order reduction skipped. Zero values mean "not
// applicable".
type CoverageStats struct {
	// CorpusSize counts the corpus schedules (coverage strategy).
	CorpusSize int
	// PrunedPicks counts the sibling picks POR skipped — each one an
	// entire schedule subtree the unpruned enumeration would have
	// visited (exhaustive strategy with POR).
	PrunedPicks int
}

// CoverageReporter is an optional Strategy extension; the engine snaps
// the stats after each Observe (into RunResult) and once at the end
// (into Result).
type CoverageReporter interface {
	CoverageStats() CoverageStats
}

// Planner is a Strategy whose runs are data: PlanRun answers Plan's
// question with a serializable RunPlan instead of a closure. Every
// built-in strategy is a Planner, and its Plan runs the plan PlanRun
// describes (the seeded walks recycle their generators through a pool)
// — which is what lets the fleet coordinator drive the very strategy
// object a local exploration uses, shipping the plans to remote workers
// instead of executing them in-process.
type Planner interface {
	Strategy
	// PlanRun answers for run i under Plan's contract (consecutive
	// indices, the same PlanWait/PlanDone answers); a PlanReady plan's
	// PickFunc draws exactly the picks Plan(i)'s function would.
	PlanRun(i int) (RunPlan, PlanState)
}

// RunPlan is everything one run's picks derive from, as data: a strategy's
// PlanRun answers with one, PickFunc turns it into the function the
// run's chooser consults, and a ShardSpec ships a list of them to a
// remote worker — so a run planned by a fleet coordinator draws exactly
// the picks the same run draws in a local exploration.
type RunPlan struct {
	// Walk names the pick rule: StrategyRandom, StrategyDelay,
	// StrategyCoverage, or StrategyExhaustive (playback of Picks).
	Walk string `json:"walk"`
	// Seed seeds the run's generator (random, delay, coverage): the
	// strategy's base seed plus the run index.
	Seed int64 `json:"seed,omitempty"`
	// DelayBound caps the run's non-default picks (delay).
	DelayBound int `json:"delayBound,omitempty"`
	// Corpus is the corpus size the coverage draw was made against.
	Corpus int `json:"corpus,omitempty"`
	// Picks is the forced prefix (exhaustive) or the mutation parent
	// (coverage, when its draw mutates).
	Picks []int `json:"picks,omitempty"`
}

// Bounds a RunPlan must respect (see RunPlan.validate): corpus sizes
// stay far below the point where pickWeighted's n(n+1)/2 overflows, and
// picks stay in the range a schedule token can carry.
const (
	maxPlanCorpus = 1 << 24
	maxPlanPick   = 1 << 31
)

// validate checks that the plan names a known walk, carries only the
// fields that walk reads, and keeps each of them within the bounds
// PickFunc relies on — a decoded plan fails here, never inside a run.
func (p RunPlan) validate() error {
	seeded, bounded, corpus, picks := false, false, false, false
	switch p.Walk {
	case StrategyRandom:
		seeded = true
	case StrategyDelay:
		seeded, bounded = true, true
	case StrategyCoverage:
		seeded, corpus, picks = true, true, true
	case StrategyExhaustive:
		picks = true
	default:
		return fmt.Errorf("explore: unknown walk %q", p.Walk)
	}
	switch {
	case !seeded && p.Seed != 0, !bounded && p.DelayBound != 0, !corpus && p.Corpus != 0, !picks && len(p.Picks) != 0:
		return fmt.Errorf("explore: %s plan carries a field its walk does not read", p.Walk)
	case bounded && p.DelayBound < 1:
		return fmt.Errorf("explore: delay plan needs a positive delay bound, got %d", p.DelayBound)
	case p.Corpus < 0 || p.Corpus > maxPlanCorpus:
		return fmt.Errorf("explore: plan corpus size %d outside [0, %d]", p.Corpus, maxPlanCorpus)
	}
	for _, v := range p.Picks {
		if v < 0 || int64(v) > maxPlanPick {
			return fmt.Errorf("explore: plan pick %d outside [0, %d]", v, int64(maxPlanPick))
		}
	}
	return nil
}

// PickFunc builds the run's pick function. Every call builds a fresh
// walk, so the plan can be executed any number of times.
func (p RunPlan) PickFunc() PickFunc {
	if p.Walk == StrategyExhaustive {
		return playbackNext(p.Picks)
	}
	w := newWalk()
	w.start(p)
	return w.next
}

// planPicks adapts PlanRun to Plan for the built-in strategies.
func planPicks(p RunPlan, st PlanState) (PickFunc, PlanState) {
	if st != PlanReady {
		return nil, st
	}
	return p.PickFunc(), PlanReady
}

// A seeded run draws from a math/rand/v2 PCG, an algorithm the standard
// library fixes by name, seeded from the run's RunPlan.Seed. Bounded
// draws go through intn, this package's own reduction, not through
// rand.Rand's IntN, whose reduction is not documented as stable: a fleet
// worker may run another build than its coordinator and must still draw
// the same picks. ShardVersion names this generator.

// seedPCG sets rng to the state run seed s starts from. A PCG's low
// state word evolves independently of its high word, so s reaches the
// low word through splitmix64, and consecutive run seeds start far apart
// in both.
func seedPCG(rng *rand.PCG, s int64) {
	rng.Seed(uint64(s), splitmix64(uint64(s)))
}

// splitmix64 is the SplitMix64 output function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// intn draws an index in [0, n) from rng: the high word of a 64×64-bit
// product of the next output and n (a multiply-high reduction, without
// a rejection step; its bias is below n/2^64).
func intn(rng *rand.PCG, n int) int {
	hi, _ := bits.Mul64(rng.Uint64(), uint64(n))
	return int(hi)
}

// walk is one run of a seeded pick rule — random, delay, or coverage.
// start seeds it at Plan, under the engine's planning lock: reseeding a
// PCG is a pair of stores, so the lock stays cheap. The strategies pool
// their walks (see walkPool), and a pooled walk reseeded by start draws
// exactly the picks a fresh one does.
type walk struct {
	plan   RunPlan
	rng    rand.PCG
	budget int  // delay: non-default picks left
	mutate bool // coverage: the draw chose to mutate plan.Picks
	next   PickFunc
}

func newWalk() *walk {
	w := &walk{}
	w.next = w.pick
	return w
}

// start readies the walk for plan p: it seeds the generator and makes
// the run's up-front draws. A coverage run's first draw decides between
// sampling and mutating p.Picks — the parent PlanRun drew from the
// corpus with the same generator state, so the walk's later picks come
// from the state that draw left.
func (w *walk) start(p RunPlan) {
	w.plan = p
	seedPCG(&w.rng, p.Seed)
	w.budget = p.DelayBound
	w.mutate = p.Walk == StrategyCoverage && coverageDraw(&w.rng, p.Corpus) >= 0
}

// pick is the walk's PickFunc. Random draws every pick uniformly. Delay
// perturbs the default schedule with at most DelayBound non-default
// picks, each site deviating with probability 1/4. A coverage walk
// either samples uniformly or replays its parent with light greybox
// mutation: each position deviates with probability 1/8, drawing
// uniformly from the live domain, and positions past the parent's end
// take the default pick. Replayed picks from a diverged schedule may
// exceed the current domain — the chooser clamps them to 0, exactly as
// token replay does.
func (w *walk) pick(pos int, _ eventloop.ChoiceKind, n int) int {
	switch {
	case w.plan.Walk == StrategyDelay:
		if w.budget > 0 && intn(&w.rng, 4) == 0 {
			w.budget--
			return 1 + intn(&w.rng, n-1)
		}
		return 0
	case w.mutate:
		if intn(&w.rng, 8) == 0 {
			return intn(&w.rng, n)
		}
		if pos < len(w.plan.Picks) {
			return w.plan.Picks[pos]
		}
		return 0
	default:
		return intn(&w.rng, n)
	}
}

// walkPool recycles a seeded strategy's walks, generators included: a
// walk is handed out at Plan, used by exactly one in-flight run, and
// reclaimed when that run's feedback arrives, so a steady-state
// exploration allocates no generator per run. Plan and Observe are never
// concurrent (see Strategy), so the pool needs no locking.
type walkPool struct {
	out  map[int]*walk
	free []*walk
}

// take hands out run i's walk of plan p, seeded.
func (wp *walkPool) take(i int, p RunPlan) PickFunc {
	var w *walk
	if n := len(wp.free); n > 0 {
		w = wp.free[n-1]
		wp.free = wp.free[:n-1]
	} else {
		w = newWalk()
	}
	w.start(p)
	if wp.out == nil {
		wp.out = make(map[int]*walk)
	}
	wp.out[i] = w
	return w.next
}

// put reclaims run i's walk, if the pool handed one out.
func (wp *walkPool) put(i int) {
	if w, ok := wp.out[i]; ok {
		delete(wp.out, i)
		wp.free = append(wp.free, w)
	}
}

// randomStrategy: uniform sampling; feedback is used only to recycle
// each run's walk.
type randomStrategy struct {
	seed  int64
	walks walkPool
}

// NewRandom returns the uniform-sampling strategy. Run i draws every
// pick from a generator seeded with seed+i, so runs are mutually
// independent and the exploration is reproducible.
func NewRandom(seed int64) Strategy { return &randomStrategy{seed: seed} }

func (s *randomStrategy) Name() string { return StrategyRandom }

func (s *randomStrategy) PlanRun(i int) (RunPlan, PlanState) {
	return RunPlan{Walk: StrategyRandom, Seed: s.seed + int64(i)}, PlanReady
}

func (s *randomStrategy) Plan(i int) (PickFunc, PlanState) {
	p, _ := s.PlanRun(i)
	return s.walks.take(i, p), PlanReady
}

func (s *randomStrategy) Observe(fb Feedback) { s.walks.put(fb.Index) }

// delayStrategy: delay-bounded sampling; feedback is used only to
// recycle each run's walk.
type delayStrategy struct {
	seed  int64
	bound int
	walks walkPool
}

// NewDelay returns the delay-bounded strategy: each run deviates from
// the default schedule in at most bound positions (0 means 2), seeded
// like NewRandom.
func NewDelay(seed int64, bound int) Strategy {
	if bound <= 0 {
		bound = 2
	}
	return &delayStrategy{seed: seed, bound: bound}
}

func (s *delayStrategy) Name() string { return StrategyDelay }

func (s *delayStrategy) PlanRun(i int) (RunPlan, PlanState) {
	return RunPlan{Walk: StrategyDelay, Seed: s.seed + int64(i), DelayBound: s.bound}, PlanReady
}

func (s *delayStrategy) Plan(i int) (PickFunc, PlanState) {
	p, _ := s.PlanRun(i)
	return s.walks.take(i, p), PlanReady
}

func (s *delayStrategy) Observe(fb Feedback) { s.walks.put(fb.Index) }

// exhaustiveStrategy owns the breadth-first frontier of forced pick
// prefixes. Each observed run exposes the branching domains along its
// schedule; unvisited siblings (non-zero picks at positions past the
// forced prefix) become new frontier entries. Every reachable pick
// vector is generated exactly once: a vector's canonical prefix is
// itself up to its last non-zero pick.
//
// With por, sibling expansion skips positions flagged independent: the
// whole permutation batch at such positions commutes (pairwise-distinct
// non-zero independence keys), so one order — the default — represents
// the equivalence class, and the skipped alternatives are counted in
// PrunedPicks.
//
// The frontier holds no prefixes, only where to cut them from. A run
// that branches leaves one copy of its recorded picks, up to its last
// branching position, and each child is a fixed-size entry naming that
// recording, the position and the sibling pick; PlanRun builds the
// prefix when the run is planned. Retained memory is therefore the
// observed runs' recordings plus one entry per discovered prefix —
// O(observed runs × depth + frontier) — where a copied prefix per entry
// would cost O(frontier × depth).
type exhaustiveStrategy struct {
	por      bool
	records  [][]int         // each branching run's picks, up to its last branching position
	frontier []frontierEntry // discovered prefixes, in BFS order
	planned  int             // runs handed out (next plan index)
	observed int             // runs fed back
	pruned   int             // sibling picks POR skipped
}

// frontierEntry is one discovered prefix: records[rec][:pos] followed by
// the pick v. The root entry, pos -1, is the empty prefix. 32-bit fields
// halve the frontier, the bulk of the strategy's memory; no exploration
// comes near 2^31 recordings, positions or siblings.
type frontierEntry struct {
	rec, pos, v int32
}

// NewExhaustive returns the breadth-first enumeration strategy; por
// enables partial-order reduction. POR preserves the always/sometimes/
// never warning classification (commuting batches touch disjoint
// simulation state) but may merge fingerprint-distinct orders, so it is
// opt-in.
func NewExhaustive(por bool) Strategy {
	return &exhaustiveStrategy{por: por, frontier: []frontierEntry{{pos: -1}}}
}

func (s *exhaustiveStrategy) Name() string { return StrategyExhaustive }

func (s *exhaustiveStrategy) PlanRun(i int) (RunPlan, PlanState) {
	if i < len(s.frontier) {
		if i >= s.planned {
			s.planned = i + 1
		}
		return RunPlan{Walk: StrategyExhaustive, Picks: s.prefix(s.frontier[i])}, PlanReady
	}
	if s.observed >= s.planned {
		// Every planned run reported back and none grew the frontier
		// past i: the space is enumerated.
		return RunPlan{}, PlanDone
	}
	return RunPlan{}, PlanWait
}

// prefix builds entry e's forced prefix (nil for the root).
func (s *exhaustiveStrategy) prefix(e frontierEntry) []int {
	if e.pos < 0 {
		return nil
	}
	p := make([]int, e.pos+1)
	copy(p, s.records[e.rec][:e.pos])
	p[e.pos] = int(e.v)
	return p
}

func (s *exhaustiveStrategy) Plan(i int) (PickFunc, PlanState) { return planPicks(s.PlanRun(i)) }

// Observe appends the run's children to the frontier. fb.Picks is
// recycled once Observe returns, so the picks the children are cut from
// are copied, once, up to the last position that has children.
func (s *exhaustiveStrategy) Observe(fb Feedback) {
	s.observed++
	rec, last := len(s.records), -1
	for pos := int(s.frontier[fb.Index].pos) + 1; pos < len(fb.Domains); pos++ {
		if s.por && pos < len(fb.Independent) && fb.Independent[pos] {
			s.pruned += fb.Domains[pos] - 1
			continue
		}
		for v := 1; v < fb.Domains[pos]; v++ {
			s.frontier = append(s.frontier, frontierEntry{rec: int32(rec), pos: int32(pos), v: int32(v)})
			last = pos
		}
	}
	if last >= 0 {
		s.records = append(s.records, slices.Clone(fb.Picks[:last]))
	}
}

// Exhausted implements SpaceReporter: true when every discovered prefix
// was executed and fed back within the budget.
func (s *exhaustiveStrategy) Exhausted() bool { return s.observed == len(s.frontier) }

// CoverageStats implements CoverageReporter (PrunedPicks only).
func (s *exhaustiveStrategy) CoverageStats() CoverageStats {
	return CoverageStats{PrunedPicks: s.pruned}
}

// coverageGeneration is the coverage strategy's planning quantum: runs
// are planned in generations of this size, and generation g sees
// exactly the corpus accumulated from the runs of generations < g. The
// boundary is what keeps the corpus identical for every worker count —
// Plan never reads feedback that a different completion order could
// have delivered earlier or later.
const coverageGeneration = 8

// corpusEntry is one schedule that discovered a new fingerprint.
type corpusEntry struct {
	picks []int
}

// coverageStrategy is the greybox-fuzzer walk over schedule space:
// uniform sampling discovers seed schedules, every run that produced a
// new Async-Graph fingerprint joins the corpus, and subsequent
// generations mostly mutate corpus schedules instead of sampling
// blindly. Seed selection is energy-weighted by recency: the k-th
// corpus entry (0-based) is drawn with weight k+1, so fresh discoveries
// — whose neighborhoods are least explored — get the most mutation
// budget.
type coverageStrategy struct {
	seed       int64
	entries    []corpusEntry
	boundaries []int // corpus size visible to each generation
	observed   int
	walks      walkPool
}

// NewCoverage returns the coverage-guided strategy (see
// StrategyCoverage), seeded like NewRandom.
func NewCoverage(seed int64) Strategy {
	return &coverageStrategy{seed: seed, boundaries: []int{0}}
}

func (s *coverageStrategy) Name() string { return StrategyCoverage }

// PlanRun makes run i's sample-or-mutate draw against the corpus its
// generation sees, and records the chosen parent in the plan.
func (s *coverageStrategy) PlanRun(i int) (RunPlan, PlanState) {
	g := i / coverageGeneration
	if g >= len(s.boundaries) {
		// Generation g opens only after every run of generations < g has
		// been observed.
		return RunPlan{}, PlanWait
	}
	corpus := s.entries[:s.boundaries[g]]
	p := RunPlan{Walk: StrategyCoverage, Seed: s.seed + int64(i), Corpus: len(corpus)}
	var rng rand.PCG
	seedPCG(&rng, p.Seed)
	if k := coverageDraw(&rng, len(corpus)); k >= 0 {
		p.Picks = corpus[k].picks
	}
	return p, PlanReady
}

func (s *coverageStrategy) Plan(i int) (PickFunc, PlanState) {
	p, st := s.PlanRun(i)
	if st != PlanReady {
		return nil, st
	}
	return s.walks.take(i, p), PlanReady
}

func (s *coverageStrategy) Observe(fb Feedback) {
	s.walks.put(fb.Index)
	if fb.NewGraph {
		s.entries = append(s.entries, corpusEntry{picks: append([]int(nil), fb.Picks...)})
	}
	s.observed++
	if s.observed%coverageGeneration == 0 {
		s.boundaries = append(s.boundaries, len(s.entries))
	}
}

// CoverageStats implements CoverageReporter (CorpusSize only).
func (s *coverageStrategy) CoverageStats() CoverageStats {
	return CoverageStats{CorpusSize: len(s.entries)}
}

// coverageDraw is a coverage run's first draw from its generator: -1
// to sample uniformly — always with an empty corpus, otherwise one run
// in four, so the walk keeps discovering schedules no corpus
// neighborhood reaches — or the index of the corpus entry to mutate.
// PlanRun makes it to choose the parent, and the run's walk makes it
// again to bring its generator to the state the picks start from.
func coverageDraw(rng *rand.PCG, corpus int) int {
	if corpus == 0 || intn(rng, 4) == 0 {
		return -1
	}
	return pickWeighted(rng, corpus)
}

// pickWeighted draws an index in [0, n) with weight k+1 — later entries
// proportionally more often.
func pickWeighted(rng *rand.PCG, n int) int {
	r := intn(rng, n*(n+1)/2)
	for k := 0; k < n; k++ {
		r -= k + 1
		if r < 0 {
			return k
		}
	}
	return n - 1
}

// DefaultKinds is the choice-point classes explored unless configured
// otherwise: orderings real systems genuinely vary. ChoiceListenerOrder
// and ChoiceDataOrder are stricter than (respectively looser than) what
// most programs assume, so they are opt-in.
func DefaultKinds() []eventloop.ChoiceKind {
	return []eventloop.ChoiceKind{eventloop.ChoiceIOOrder, eventloop.ChoiceTimerTie, eventloop.ChoiceLatency}
}

// AllKinds returns every choice-point class. Replay uses it: a token
// stores picks by position, so the replaying scheduler must answer every
// choice point, whatever kinds produced the recording.
func AllKinds() []eventloop.ChoiceKind {
	return []eventloop.ChoiceKind{
		eventloop.ChoiceIOOrder, eventloop.ChoiceTimerTie, eventloop.ChoiceLatency,
		eventloop.ChoiceListenerOrder, eventloop.ChoiceDataOrder,
	}
}

// parseKinds converts a comma-separated kind list ("io-order,latency");
// empty means DefaultKinds.
func parseKinds(s string) ([]eventloop.ChoiceKind, error) {
	if s == "" {
		return DefaultKinds(), nil
	}
	var kinds []eventloop.ChoiceKind
	for _, part := range strings.Split(s, ",") {
		if part == "" {
			continue
		}
		k := eventloop.ChoiceKind(part)
		if !slices.Contains(AllKinds(), k) {
			return nil, fmt.Errorf("explore: unknown choice kind %q", part)
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// chooser is the eventloop.Scheduler the engine installs for each run.
// It consults a strategy function for enabled kinds, forces the default
// pick for disabled ones, and records every pick with its effective
// domain — the recording is the run's replay token and the exhaustive
// strategy's branching information.
//
// Every Choose call appends exactly one pick, including disabled kinds
// (forced to 0 with domain 1), so pick positions line up between
// recording and replay regardless of which kinds were enabled.
//
// chooser also implements eventloop.IndependenceScheduler: when a
// permutation batch's independence keys are pairwise distinct and
// non-zero, the batch's pick positions are flagged in indep — the raw
// material of the exhaustive strategy's partial-order reduction.
type chooser struct {
	enabled map[eventloop.ChoiceKind]bool
	next    PickFunc

	picks   []int
	domains []int
	indep   []bool

	indepRun int // remaining picks of the current commuting batch
}

func newChooser(kinds []eventloop.ChoiceKind, next PickFunc) *chooser {
	enabled := make(map[eventloop.ChoiceKind]bool, len(kinds))
	for _, k := range kinds {
		enabled[k] = true
	}
	return &chooser{enabled: enabled, next: next}
}

// reset rewinds a pooled chooser for its next recording, keeping the
// enabled set (every run of an exploration perturbs the same kinds) and
// the recording slices' capacity. Callers must have consumed or copied
// the previous recording: the pool recycles a chooser only after the
// strategy's Observe call returned.
func (c *chooser) reset(next PickFunc) {
	c.next = next
	c.picks = c.picks[:0]
	c.domains = c.domains[:0]
	c.indep = c.indep[:0]
	c.indepRun = 0
}

// BeginPermute implements eventloop.IndependenceScheduler. The loop
// announces a batch's keys immediately before its len(keys)-1 Choose
// calls; the batch commutes only when every key is non-zero and no two
// are equal.
func (c *chooser) BeginPermute(_ eventloop.ChoiceKind, keys []uint64) {
	c.indepRun = 0
	if len(keys) < 2 {
		return
	}
	for i, k := range keys {
		if k == 0 {
			return
		}
		for j := 0; j < i; j++ {
			if keys[j] == k {
				return
			}
		}
	}
	c.indepRun = len(keys) - 1
}

// Choose implements eventloop.Scheduler.
func (c *chooser) Choose(kind eventloop.ChoiceKind, n int) int {
	pick, domain := 0, 1
	if c.enabled[kind] {
		domain = n
		pick = c.next(len(c.picks), kind, n)
		if pick < 0 || pick >= n {
			pick = 0
		}
	}
	ind := false
	if c.indepRun > 0 {
		c.indepRun--
		ind = true
	}
	c.picks = append(c.picks, pick)
	c.domains = append(c.domains, domain)
	c.indep = append(c.indep, ind)
	return pick
}

// Schedule returns the recorded pick sequence.
func (c *chooser) Schedule() Schedule { return Schedule{Picks: c.picks} }

// playbackNext replays a recorded pick sequence, defaulting to 0 past
// its end (tokens trim trailing zeros, and a deviated prefix may make
// the run shorter or longer than the recording).
func playbackNext(picks []int) PickFunc {
	return func(pos int, _ eventloop.ChoiceKind, _ int) int {
		if pos < len(picks) {
			return picks[pos]
		}
		return 0
	}
}
