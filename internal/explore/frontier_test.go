package explore

import (
	"reflect"
	"testing"

	"asyncg/internal/eventloop"
)

// refExhaustive is the reference enumeration: the exhaustive strategy
// with a frontier of copied prefixes, each child a fresh copy of its
// parent's recorded picks up to the branching position.
// FuzzExhaustiveFrontier holds exhaustiveStrategy, which keeps the
// recordings instead, to its answers.
type refExhaustive struct {
	por      bool
	queue    [][]int // discovered prefixes, in BFS order
	planned  int     // runs handed out (next plan index)
	observed int     // runs fed back
	pruned   int     // sibling picks POR skipped
}

func (s *refExhaustive) PlanRun(i int) (RunPlan, PlanState) {
	if i < len(s.queue) {
		if i >= s.planned {
			s.planned = i + 1
		}
		return RunPlan{Walk: StrategyExhaustive, Picks: s.queue[i]}, PlanReady
	}
	if s.observed >= s.planned {
		// Every planned run reported back and none grew the frontier
		// past i: the space is enumerated.
		return RunPlan{}, PlanDone
	}
	return RunPlan{}, PlanWait
}

func (s *refExhaustive) Observe(fb Feedback) {
	s.observed++
	prefix := s.queue[fb.Index]
	for pos := len(prefix); pos < len(fb.Domains); pos++ {
		if s.por && pos < len(fb.Independent) && fb.Independent[pos] {
			s.pruned += fb.Domains[pos] - 1
			continue
		}
		for v := 1; v < fb.Domains[pos]; v++ {
			child := make([]int, pos+1)
			copy(child, fb.Picks[:pos])
			child[pos] = v
			s.queue = append(s.queue, child)
		}
	}
}

func (s *refExhaustive) Exhausted() bool { return s.observed == len(s.queue) }

func (s *refExhaustive) CoverageStats() CoverageStats {
	return CoverageStats{PrunedPicks: s.pruned}
}

// synthMaxRun caps a synthetic run's length.
const synthMaxRun = 24

// synthRun executes plan on the synthetic choice tree of seed, recording
// into fb's slices. At each position, a hash of the seed and the picks
// before it decides whether the run ends there, the position's domain
// (1–4) and its independence flag. The seed also sets how often a run
// ends, so some trees exhaust within a few runs and others never do.
func synthRun(seed uint64, plan RunPlan, fb *Feedback) {
	next := plan.PickFunc()
	fb.Picks, fb.Domains, fb.Independent = fb.Picks[:0], fb.Domains[:0], fb.Independent[:0]
	ends := 2 + seed%6 // a run ends at each position with chance about 1/ends
	h := splitmix64(seed)
	for pos := 0; pos < synthMaxRun && h%ends != 0; pos++ {
		d, pick := 1+int((h>>8)%4), 0
		if d > 1 {
			pick = next(pos, eventloop.ChoiceIOOrder, d)
		}
		fb.Picks = append(fb.Picks, pick)
		fb.Domains = append(fb.Domains, d)
		fb.Independent = append(fb.Independent, (h>>16)%4 == 0)
		h = splitmix64(h + uint64(pick))
	}
}

// driveFrontier runs the same exploration of seed's synthetic tree
// through exhaustiveStrategy and refExhaustive, with up to inFlight runs
// planned but not yet observed, the way the worker pool hands runs in,
// and fails on the first answer, Exhausted flag or CoverageStats on
// which they differ. One Feedback's slices serve every run and are
// overwritten once both strategies observed it, as the pool recycles a
// chooser. It returns whether the reference exhausted the tree.
func driveFrontier(t testing.TB, seed uint64, budget int, por bool, inFlight int) bool {
	t.Helper()
	got, want := NewExhaustive(por).(*exhaustiveStrategy), &refExhaustive{por: por, queue: [][]int{nil}}
	var fb Feedback
	var pending []RunPlan // planned, not yet observed, from index observed on
	observed := 0
	handIn := func() {
		synthRun(seed, pending[0], &fb)
		fb.Index = observed
		got.Observe(fb)
		want.Observe(fb)
		for j := range fb.Picks {
			fb.Picks[j] = -1
		}
		pending = pending[1:]
		observed++
		if g, w := got.Exhausted(), want.Exhausted(); g != w {
			t.Fatalf("after run %d: Exhausted %v, reference %v", observed-1, g, w)
		}
		if g, w := got.CoverageStats(), want.CoverageStats(); g != w {
			t.Fatalf("after run %d: CoverageStats %+v, reference %+v", observed-1, g, w)
		}
	}
	for i := 0; i < budget; {
		gp, gs := got.PlanRun(i)
		wp, ws := want.PlanRun(i)
		if gs != ws || !reflect.DeepEqual(gp, wp) {
			t.Fatalf("run %d: planned %v %+v, reference %v %+v", i, gs, gp, ws, wp)
		}
		if ws == PlanReady {
			pending = append(pending, wp)
			i++
			if len(pending) < inFlight {
				continue
			}
		} else if ws == PlanDone || len(pending) == 0 {
			break
		}
		handIn()
	}
	for len(pending) > 0 {
		handIn()
	}
	return want.Exhausted()
}

// frontierSeeds seed FuzzExhaustiveFrontier: each tree with and without
// POR, one exhausting within its budget and one that does not.
var frontierSeeds = []struct {
	budget   uint16
	por      bool
	tree     uint64
	exhausts bool
}{
	{512, false, 12, true},
	{512, true, 12, true},
	{512, false, 5, false},
	{512, true, 5, false},
}

// FuzzExhaustiveFrontier: on a synthetic choice tree, with up to 512
// runs and one or two runs in flight, exhaustiveStrategy answers every
// PlanRun exactly as the reference enumeration does — the same state
// and the same forced prefix — and reports the same Exhausted flag and
// CoverageStats after every Observe.
func FuzzExhaustiveFrontier(f *testing.F) {
	for _, s := range frontierSeeds {
		if got := driveFrontier(f, s.tree, int(s.budget), s.por, 1); got != s.exhausts {
			f.Fatalf("tree %d, por %v: exhausted %v within %d runs, want %v", s.tree, s.por, got, s.budget, s.exhausts)
		}
		f.Add(s.budget, s.por, s.tree)
	}
	f.Fuzz(func(t *testing.T, budget uint16, por bool, tree uint64) {
		for _, inFlight := range []int{1, 2} {
			driveFrontier(t, tree, int(budget%513), por, inFlight)
		}
	})
}
