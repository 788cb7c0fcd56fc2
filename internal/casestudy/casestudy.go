// Package casestudy reproduces the paper's bug corpus: the fourteen
// StackOverflow / GitHub issues of Table I, the motivating examples of
// Fig. 1 / Fig. 4 (with their Async Graphs, Fig. 3 / Fig. 5), and the
// §III ordering snippet. Each case is a small runnable program written
// against the asyncg facade, with its buggy version (expected to trigger
// specific detector categories) and, where the paper shows one, the
// fixed version (expected to be clean of those categories).
package casestudy

import (
	"fmt"

	"asyncg"
	"asyncg/internal/asyncgraph"
	"asyncg/internal/detect"
	"asyncg/internal/eventloop"
)

// Case is one reproduced bug report.
type Case struct {
	// ID is the paper's identifier, e.g. "SO-33330277".
	ID string
	// Title summarizes the bug.
	Title string
	// Category is the paper's Table I classification.
	Category string
	// Expect lists the detector categories the buggy version must
	// trigger (usually one; the Table I category's detector).
	Expect []detect.Category
	// TickLimit bounds non-terminating programs; 0 means 500.
	TickLimit int
	// Buggy is the program as reported.
	Buggy func(ctx *asyncg.Context)
	// Fixed is the repaired program (nil when the paper shows none);
	// it must not trigger any category in Expect.
	Fixed func(ctx *asyncg.Context)
	// Manual, when set, performs the §VI-B graph-assisted query for
	// categories that need developer-driven inspection, returning the
	// warnings it derives from the graph.
	Manual func(r *asyncg.Report) []asyncgraph.Warning
}

// Result bundles a case run.
type Result struct {
	Case    Case
	Report  *asyncg.Report
	Err     error // ErrTickLimit is expected for starvation bugs
	Fixed   bool
	Matched []detect.Category // which Expect categories were found (buggy runs)
	Missing []detect.Category // Expect categories not found (buggy runs)
	Leaked  []detect.Category // Expect categories found in a fixed run
}

// Clean reports whether the run met its expectation.
func (r Result) Clean() bool {
	if r.Fixed {
		return len(r.Leaked) == 0
	}
	return len(r.Missing) == 0
}

// All returns every reproduced case: Table I first (paper order), then
// the extra §VI / §VII cases and the figure examples.
func All() []Case {
	return []Case{
		caseSO38140113(),
		caseSO32559324(),
		caseSO33330277(),
		caseSO30515037(),
		caseSO50996870(),
		caseSO28830663(),
		caseSO30724625(),
		caseSO43422932(),
		caseSO10444077(),
		caseSO45881685(),
		caseSO31978347(),
		caseGHVuex2(),
		caseGHFlock13(),
		caseGHNpm12754(),
		caseSO17894000(),
		caseFig4(),
		caseMotivation(),
		caseFanoutJoin(),
	}
}

// Table1 returns the fourteen Table I entries only.
func Table1() []Case { return All()[:14] }

// aliases maps friendly names onto canonical case IDs. "bugdetect" is
// the Fig. 4 program as packaged in examples/bugdetect — the anchor of
// the docs/DEBUGGING.md walkthrough.
var aliases = map[string]string{
	"bugdetect": "fig4",
}

// ByID finds a case by identifier or alias.
func ByID(id string) (Case, bool) {
	if canon, ok := aliases[id]; ok {
		id = canon
	}
	for _, c := range All() {
		if c.ID == id {
			return c, true
		}
	}
	return Case{}, false
}

// SessionFor creates the analysis session a case runs under: the case's
// tick limit plus the caller's extra options (e.g. asyncg.WithTrace,
// asyncg.WithMetrics from the CLI). Exported so reusable runners can
// construct the session once and Reset it between runs.
func SessionFor(c Case, extra ...asyncg.Option) *asyncg.Session {
	limit := c.TickLimit
	if limit == 0 {
		limit = 500
	}
	opts := append([]asyncg.Option{asyncg.WithLoop(eventloop.Options{TickLimit: limit})}, extra...)
	return asyncg.New(opts...)
}

// SessionRunner executes one version of a case repeatedly on a reusable
// session: the first Run builds the session from the given options,
// later Runs reuse its allocation set. It satisfies the explore
// package's Runner contract — Reset must be called between Runs, and
// per-run options (scheduler, context) are re-applied through
// asyncg.Session.Apply while structural options stay fixed at the first
// call. Manual graph queries (Case.Manual) are appended to the buggy
// report, so a reused runner's report is byte-identical to a one-shot
// run's; RunBuggy and RunFixed are such one-shot runs.
type SessionRunner struct {
	c       Case
	program func(ctx *asyncg.Context)
	manual  func(*asyncg.Report) []asyncgraph.Warning
	session *asyncg.Session
}

// NewRunner creates a reusable runner for the case's buggy or fixed
// version. Running the fixed version of a case without one does nothing
// and returns a nil report (explore targets reject such cases before
// constructing runners).
func NewRunner(c Case, fixed bool) *SessionRunner {
	r := &SessionRunner{c: c, program: c.Buggy}
	if fixed {
		r.program = c.Fixed
	} else {
		r.manual = c.Manual
	}
	return r
}

// Run executes the case once. The runner must be cold: freshly created,
// or Reset since the previous Run.
func (r *SessionRunner) Run(extra ...asyncg.Option) (*asyncg.Report, error) {
	if r.program == nil {
		// Fixed version of a case without one.
		return nil, nil
	}
	if r.session == nil {
		r.session = SessionFor(r.c, extra...)
	} else {
		r.session.Apply(extra...)
	}
	report, err := r.session.Run(r.program)
	if r.manual != nil {
		report.Warnings = append(report.Warnings, r.manual(report)...)
	}
	return report, err
}

// Reset returns the runner's session to cold-start state, retaining its
// allocations. Objects from the previous run's report are invalidated.
func (r *SessionRunner) Reset() {
	if r.session != nil {
		r.session.Reset()
	}
}

// RunBuggy executes the buggy program under AsyncG and checks the
// expected categories.
func RunBuggy(c Case, extra ...asyncg.Option) Result {
	report, err := NewRunner(c, false).Run(extra...)
	res := Result{Case: c, Report: report, Err: err}
	for _, cat := range c.Expect {
		if report.HasWarning(cat) {
			res.Matched = append(res.Matched, cat)
		} else {
			res.Missing = append(res.Missing, cat)
		}
	}
	return res
}

// RunFixed executes the fixed program (when present) and checks that the
// buggy categories are gone.
func RunFixed(c Case, extra ...asyncg.Option) Result {
	report, err := NewRunner(c, true).Run(extra...)
	res := Result{Case: c, Report: report, Err: err, Fixed: true}
	if report == nil {
		return res
	}
	for _, cat := range c.Expect {
		if report.HasWarning(cat) {
			res.Leaked = append(res.Leaked, cat)
		}
	}
	return res
}

// Summary renders a Table I-style row.
func (r Result) Summary() string {
	status := "ok"
	if !r.Clean() {
		status = "FAIL"
	}
	kind := "buggy"
	if r.Fixed {
		kind = "fixed"
	}
	warnings := 0
	if r.Report != nil {
		warnings = len(r.Report.Warnings)
	}
	return fmt.Sprintf("%-14s %-30s %-6s %-4s warnings=%d", r.Case.ID, r.Case.Category, kind, status, warnings)
}
