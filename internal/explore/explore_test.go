package explore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"asyncg/internal/detect"
	"asyncg/internal/eventloop"
)

func caseTarget(t *testing.T, id string) Target {
	t.Helper()
	tg, err := CaseTargetByID(id, false)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// mustRun explores under a background context, failing the test on a
// (never expected) cancellation error.
func mustRun(t *testing.T, tg Target, opts ...Option) *Result {
	t.Helper()
	res, err := Run(context.Background(), tg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Reference pick rules: each seeded walk written as a closure over its
// own generator, drawing through intn. The strategies' walks are pooled
// and reseeded at Plan (see walk); the tests hold their pick streams to
// these.

// refRNG returns a generator in the state run seed s starts from.
func refRNG(s int64) *rand.PCG {
	rng := new(rand.PCG)
	seedPCG(rng, s)
	return rng
}

// randomNext draws every pick uniformly.
func randomNext(rng *rand.PCG) PickFunc {
	return func(_ int, _ eventloop.ChoiceKind, n int) int { return intn(rng, n) }
}

// delayNext perturbs the default schedule with at most bound non-default
// picks, each site deviating with probability 1/4.
func delayNext(rng *rand.PCG, bound int) PickFunc {
	budget := bound
	return func(_ int, _ eventloop.ChoiceKind, n int) int {
		if budget > 0 && intn(rng, 4) == 0 {
			budget--
			return 1 + intn(rng, n-1)
		}
		return 0
	}
}

// mutateNext replays seed, each position deviating with probability 1/8
// to a uniform draw; positions past the seed's end take the default pick.
func mutateNext(rng *rand.PCG, seed []int) PickFunc {
	return func(pos int, _ eventloop.ChoiceKind, n int) int {
		if intn(rng, 8) == 0 {
			return intn(rng, n)
		}
		if pos < len(seed) {
			return seed[pos]
		}
		return 0
	}
}

// TestPooledWalksMatchReference: the random and delay strategies hand
// out pooled walks, reseeded at Plan. Across recycled walks — including
// runs that draw nothing before their walk goes back to the pool — run
// i still draws exactly the reference rule's picks from a generator
// seeded with seed+i, and so does RunPlan.PickFunc.
func TestPooledWalksMatchReference(t *testing.T) {
	const seed, bound = 9, 2
	for _, tc := range []struct {
		s   Planner
		ref func(*rand.PCG) PickFunc
	}{
		{NewRandom(seed).(Planner), randomNext},
		{NewDelay(seed, bound).(Planner), func(rng *rand.PCG) PickFunc { return delayNext(rng, bound) }},
	} {
		for i := 0; i < 12; i++ {
			pooled, st := tc.s.Plan(i)
			if st != PlanReady {
				t.Fatalf("%s run %d: plan state %v", tc.s.Name(), i, st)
			}
			p, _ := tc.s.PlanRun(i)
			fresh := p.PickFunc()
			want := tc.ref(refRNG(seed + int64(i)))
			picks := 24
			if i%3 == 1 {
				picks = 0 // a run that meets no choice point
			}
			for pos := 0; pos < picks; pos++ {
				n := 2 + pos%3
				w, g, f := want(pos, eventloop.ChoiceIOOrder, n), pooled(pos, eventloop.ChoiceIOOrder, n), fresh(pos, eventloop.ChoiceIOOrder, n)
				if g != w || f != w {
					t.Fatalf("%s run %d pick %d: pooled %d, plan %d, reference %d", tc.s.Name(), i, pos, g, f, w)
				}
			}
			tc.s.Observe(Feedback{Index: i})
		}
	}
}

func TestTokenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	for i := 0; i < 200; i++ {
		picks := make([]int, rng.IntN(40))
		for j := range picks {
			picks[j] = rng.IntN(6)
		}
		tok := Schedule{Picks: picks}.Token()
		back, err := ParseToken(tok)
		if err != nil {
			t.Fatalf("ParseToken(%q): %v", tok, err)
		}
		// Trailing zeros are trimmed by design; replay treats positions
		// past the end as zero, so pad before comparing.
		padded := append([]int{}, back.Picks...)
		for len(padded) < len(picks) {
			padded = append(padded, 0)
		}
		if !reflect.DeepEqual(padded, picks) {
			t.Fatalf("roundtrip %v -> %q -> %v", picks, tok, back.Picks)
		}
	}
	if _, err := ParseToken("bogus"); err == nil {
		t.Fatal("ParseToken accepted a token without prefix")
	}
	if _, err := ParseToken("s1.!!!"); err == nil {
		t.Fatal("ParseToken accepted invalid base64")
	}
	// A pick is at most 2^31 and must fit in int, so the pick 2^31
	// parses only where int has 64 bits, and 2^31+1 never.
	s, err := ParseToken("s1.gICAgAg")
	if math.MaxInt > 1<<31 {
		if err != nil || len(s.Picks) != 1 || int64(s.Picks[0]) != 1<<31 {
			t.Errorf("ParseToken(pick 2^31) = %v, %v; want [2147483648]", s.Picks, err)
		}
	} else if err == nil {
		t.Errorf("ParseToken(pick 2^31) = %v with a 32-bit int, want an error", s.Picks)
	}
	if s, err := ParseToken("s1.gYCAgAg"); err == nil {
		t.Errorf("ParseToken(pick 2^31+1) = %v, want an error", s.Picks)
	}
}

// FuzzParseToken: a token that parses re-encodes to a token that parses
// to the same picks, trailing zeros trimmed.
func FuzzParseToken(f *testing.F) {
	for _, tok := range []string{"s1.", "s1.AQ", "s1.AQM", "s1.AA", "s1.gAE", "s1.gICAgAg", "s1.!!!", "bogus", ""} {
		f.Add(tok)
	}
	f.Add("s1.AwCAgICACAI") // picks 3, 0, 2^31, 2: accepted only where int has 64 bits
	f.Fuzz(func(t *testing.T, tok string) {
		s, err := ParseToken(tok)
		if err != nil {
			return
		}
		want := s.Picks
		for len(want) > 0 && want[len(want)-1] == 0 {
			want = want[:len(want)-1]
		}
		again := s.Token()
		back, err := ParseToken(again)
		if err != nil {
			t.Fatalf("%q parsed to %v, whose token %q does not parse: %v", tok, s.Picks, again, err)
		}
		if !slices.Equal(back.Picks, want) {
			t.Fatalf("%q parsed to %v, whose token %q parses to %v, want %v", tok, s.Picks, again, back.Picks, want)
		}
	})
}

// TestReplayDeterminism is the replay-fidelity property of the
// acceptance criteria: across at least 100 random seeds, replaying a
// run's token reproduces the identical Async-Graph fingerprint and the
// identical warning set.
func TestReplayDeterminism(t *testing.T) {
	cases := []string{"SO-17894000", "GH-vuex-2"}
	for _, id := range cases {
		tg := caseTarget(t, id)
		for seed := int64(0); seed < 50; seed++ {
			orig, _, _ := runOnce(context.Background(), tg.runFresh, 0, newChooser(AllKinds(), randomNext(refRNG(seed))), nil, &config{}, newIntern())
			rep, _, err := Replay(tg, orig.Token)
			if err != nil {
				t.Fatalf("%s seed %d: replay: %v", id, seed, err)
			}
			if rep.Fingerprint != orig.Fingerprint {
				t.Errorf("%s seed %d: fingerprint %s != %s (token %s)",
					id, seed, rep.Fingerprint, orig.Fingerprint, orig.Token)
			}
			if !reflect.DeepEqual(rep.Warnings, orig.Warnings) {
				t.Errorf("%s seed %d: warnings %v != %v (token %s)",
					id, seed, rep.Warnings, orig.Warnings, orig.Token)
			}
		}
	}
}

// TestSometimesClassification checks the paper-derived SO-17894000 case
// (listener added within a listener) is schedule-dependent: the 'data'
// and 'end' deliveries become ready at the same instant, so the I/O
// completion order decides whether the inner listener registration ever
// happens. The engine must classify it sometimes, with working witness
// and counter-witness tokens.
func TestSometimesClassification(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	res := mustRun(t, tg, WithRuns(24), WithSeed(3))
	var found *WarningStat
	for i := range res.Warnings {
		if res.Warnings[i].Category == detect.CatListenerInListener {
			found = &res.Warnings[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("no %s warning observed in %d runs", detect.CatListenerInListener, len(res.Runs))
	}
	if found.Outcome != OutcomeSometimes {
		t.Fatalf("%s classified %s, want %s", found.Key, found.Outcome, OutcomeSometimes)
	}
	if found.Witness == "" || found.CounterWitness == "" {
		t.Fatalf("sometimes warning missing tokens: witness=%q counter=%q", found.Witness, found.CounterWitness)
	}

	wit, _, err := Replay(tg, found.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if !hasKey(wit.Warnings, found.Key) {
		t.Errorf("witness %s does not reproduce %s (got %v)", found.Witness, found.Key, wit.Warnings)
	}
	cnt, _, err := Replay(tg, found.CounterWitness)
	if err != nil {
		t.Fatal(err)
	}
	if hasKey(cnt.Warnings, found.Key) {
		t.Errorf("counter-witness %s still shows %s", found.CounterWitness, found.Key)
	}

	// The category-level classification must agree and mark the
	// case study's expected category.
	for _, cs := range res.Categories {
		if cs.Category == detect.CatListenerInListener {
			if cs.Outcome != OutcomeSometimes || !cs.Expected {
				t.Errorf("category stat = %+v, want expected sometimes", cs)
			}
		}
	}
}

// TestExhaustiveCoversRandom: on a small case the exhaustive strategy
// must terminate within budget and visit every distinct fingerprint that
// random sampling finds.
func TestExhaustiveCoversRandom(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	kinds := []eventloop.ChoiceKind{eventloop.ChoiceIOOrder, eventloop.ChoiceLatency}
	ex := mustRun(t, tg, WithRuns(400), WithStrategy(NewExhaustive(false)), WithKinds(kinds...))
	if !ex.Exhausted {
		t.Fatalf("exhaustive strategy did not finish in %d runs", len(ex.Runs))
	}
	covered := make(map[string]bool)
	for _, fp := range ex.Fingerprints {
		covered[fp.Fingerprint] = true
	}
	rnd := mustRun(t, tg, WithRuns(60), WithSeed(11), WithKinds(kinds...))
	for _, fp := range rnd.Fingerprints {
		if !covered[fp.Fingerprint] {
			t.Errorf("random found fingerprint %s (token %s) missed by exhaustive enumeration", fp.Fingerprint, fp.Token)
		}
	}
	if len(ex.Fingerprints) < 2 {
		t.Errorf("expected schedule-dependent graph shapes, got %d fingerprint(s)", len(ex.Fingerprints))
	}
}

// TestDelayBound: the delay strategy deviates from the default schedule
// in at most DelayBound positions per run.
func TestDelayBound(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	const bound = 2
	for seed := int64(0); seed < 10; seed++ {
		ch := newChooser(DefaultKinds(), delayNext(refRNG(seed), bound))
		runOnce(context.Background(), tg.runFresh, 0, ch, nil, &config{}, newIntern())
		nonzero := 0
		for _, p := range ch.picks {
			if p != 0 {
				nonzero++
			}
		}
		if nonzero > bound {
			t.Fatalf("seed %d: %d non-default picks, bound %d", seed, nonzero, bound)
		}
	}
}

// TestDefaultScheduleMatchesNoScheduler: the all-zero schedule must
// reproduce the historical deterministic order, so exploration results
// always include the unperturbed baseline.
func TestDefaultScheduleMatchesNoScheduler(t *testing.T) {
	for _, id := range []string{"SO-17894000", "GH-npm-12754", "fig4"} {
		tg := caseTarget(t, id)
		base, err := tg.Run()
		if err != nil && err != eventloop.ErrTickLimit {
			t.Fatalf("%s: %v", id, err)
		}
		zero, _, rerr := Replay(tg, Schedule{}.Token())
		if rerr != nil {
			t.Fatalf("%s: %v", id, rerr)
		}
		if base.Graph.Fingerprint() != zero.Fingerprint {
			t.Errorf("%s: zero schedule fingerprint %s != unscheduled %s", id, zero.Fingerprint, base.Graph.Fingerprint())
		}
	}
}

// TestAlwaysClassification: GH-npm-12754's recursive-microtask drain is
// schedule-independent (the starvation happens before any I/O or timer
// choice can matter), so exploration must classify it always.
func TestAlwaysClassification(t *testing.T) {
	tg := caseTarget(t, "GH-npm-12754")
	res := mustRun(t, tg, WithRuns(8), WithSeed(5))
	found := false
	for _, cs := range res.Categories {
		if cs.Category == detect.CatRecursiveMicrotask {
			found = true
			if cs.Outcome != OutcomeAlways {
				t.Errorf("recursive-microtask classified %s, want always", cs.Outcome)
			}
		}
	}
	if !found {
		t.Fatal("recursive-microtask not classified at all")
	}
}

func TestAcmeAirExploreAndReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("acmeair exploration in -short mode")
	}
	tg := AcmeAirTarget(30, 3, 1)
	res := mustRun(t, tg, WithRuns(2), WithSeed(9))
	if len(res.Runs) != 2 {
		t.Fatalf("got %d runs", len(res.Runs))
	}
	for _, rr := range res.Runs {
		if rr.Err != "" {
			t.Fatalf("run %d failed: %s", rr.Index, rr.Err)
		}
		rep, _, err := Replay(tg, rr.Token)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Fingerprint != rr.Fingerprint {
			t.Errorf("run %d: replay fingerprint %s != %s", rr.Index, rep.Fingerprint, rr.Fingerprint)
		}
	}
}

func TestWriteNDJSON(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	res := mustRun(t, tg, WithRuns(6), WithSeed(1))
	var buf bytes.Buffer
	if err := res.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	scanner := bufio.NewScanner(&buf)
	kinds := make(map[string]int)
	var lastKind string
	for scanner.Scan() {
		var line map[string]any
		if err := json.Unmarshal(scanner.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		kind, _ := line["kind"].(string)
		kinds[kind]++
		lastKind = kind
	}
	if kinds[KindRun] != 6 {
		t.Errorf("got %d %s lines, want 6", kinds[KindRun], KindRun)
	}
	if kinds[KindSummary] != 1 || lastKind != KindSummary {
		t.Errorf("summary line count=%d last=%q", kinds[KindSummary], lastKind)
	}
	if kinds[KindWarning] == 0 {
		t.Error("no warning lines")
	}

	var text strings.Builder
	if err := res.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "distinct async-graph fingerprints") {
		t.Errorf("text report missing fingerprint census:\n%s", text.String())
	}
}

func hasKey(keys []string, key string) bool {
	for _, k := range keys {
		if k == key {
			return true
		}
	}
	return false
}

// TestSpecOptions: Spec.Options is the one validation every front end
// shares. A negative run budget, an unknown strategy and an unknown
// choice kind are refused; a valid spec explores exactly what the
// equivalent options do, an empty strategy meaning random.
func TestSpecOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"negative run budget", Spec{Target: "case:SO-17894000", Runs: -1}, "negative run budget"},
		{"unknown strategy", Spec{Target: "case:SO-17894000", Strategy: "anneal"}, "unknown strategy"},
		{"unknown choice kind", Spec{Target: "case:SO-17894000", Kinds: "io-order,bogus-kind"}, "unknown choice kind"},
	} {
		if _, _, err := tc.spec.Options(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	tg := caseTarget(t, "SO-17894000")
	p, opts, err := Spec{Target: "case:SO-17894000", Seed: 3, Runs: 8, Kinds: "io-order,latency", Chains: true}.Options()
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != StrategyRandom {
		t.Errorf("empty strategy built %q, want %q", p.Name(), StrategyRandom)
	}
	got := resultJSON(t, mustRun(t, tg, opts...))
	want := resultJSON(t, mustRun(t, tg, WithSeed(3), WithRuns(8), WithChains(),
		WithKinds(eventloop.ChoiceIOOrder, eventloop.ChoiceLatency)))
	if got != want {
		t.Errorf("Spec.Options explored differently from the equivalent options\nspec:    %s\noptions: %s", got, want)
	}
}
