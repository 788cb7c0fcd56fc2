package explore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"asyncg/internal/asyncgraph"
	"asyncg/internal/casestudy"
)

// TestChainsAttached: WithChains must leave every witnessed warning stat
// carrying the chain that Replay stamps on the first warning of its key
// in the witness schedule — the chain is a deterministic function of
// (target, token), and a key keeps its first warning's chain. A
// starvation case warns from one site on every reschedule, each later
// chain longer than the first, so every Table I case runs. A warning
// anchored to a graph node must get a non-empty chain.
func TestChainsAttached(t *testing.T) {
	ids := []string{"fig4"}
	for _, c := range casestudy.Table1() {
		ids = append(ids, c.ID)
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			tg := caseTarget(t, id)
			res := mustRun(t, tg, WithRuns(8), WithSeed(1), WithChains())
			if len(res.Warnings) == 0 {
				t.Fatal("no warnings classified")
			}
			for _, ws := range res.Warnings {
				if ws.Witness == "" {
					continue
				}
				_, report, err := Replay(tg, ws.Witness)
				if err != nil {
					t.Fatalf("%s: replay %s: %v", ws.Key, ws.Witness, err)
				}
				i := slices.IndexFunc(report.Warnings, func(w asyncgraph.Warning) bool { return warnKey(w) == ws.Key })
				if i < 0 {
					t.Errorf("%s: witness replay did not reproduce the warning", ws.Key)
					continue
				}
				first := report.Warnings[i]
				if first.ReplayToken != ws.Witness {
					t.Errorf("%s: replayed warning carries token %q, want %q", ws.Key, first.ReplayToken, ws.Witness)
				}
				if first.Node != asyncgraph.NoNode && len(ws.Chain) == 0 {
					t.Errorf("%s: witnessed warning has no chain", ws.Key)
				}
				if !reflect.DeepEqual(first.Chain, ws.Chain) {
					t.Errorf("%s: classified chain differs from the first replayed warning's:\nreplay:   %+v\nclassify: %+v",
						ws.Key, first.Chain, ws.Chain)
				}
			}
		})
	}
}

// TestChainsDebugStacks: WithDebugStacks upgrades chain hops with the
// captured creation frames, and — applying to witness replays only —
// leaves every explored run and the rest of the classification as they
// are without it.
func TestChainsDebugStacks(t *testing.T) {
	tg := caseTarget(t, "fig4")
	plain := mustRun(t, tg, WithRuns(8), WithSeed(1), WithChains())
	stacked := mustRun(t, tg, WithRuns(8), WithSeed(1), WithChains(), WithDebugStacks())
	stackHops := func(r *Result) int {
		n := 0
		for _, ws := range r.Warnings {
			for _, hop := range ws.Chain {
				if len(hop.Stack) > 0 {
					n++
				}
			}
		}
		return n
	}
	if n := stackHops(plain); n != 0 {
		t.Errorf("%d chain hops carry stacks without WithDebugStacks", n)
	}
	if stackHops(stacked) == 0 {
		t.Error("WithChains+WithDebugStacks: no chain hop carries a stack")
	}
	for i := range stacked.Warnings {
		stacked.Warnings[i].Chain, plain.Warnings[i].Chain = nil, nil
	}
	if got, want := resultJSON(t, stacked), resultJSON(t, plain); got != want {
		t.Errorf("debug stacks changed the exploration beyond chain frames\nwith:    %s\nwithout: %s", got, want)
	}
}

// TestChainsIdenticalAcrossWorkers: the chain attachment happens after
// aggregation, so the classified output — chains included — must be
// byte-identical regardless of how many workers executed the schedules.
func TestChainsIdenticalAcrossWorkers(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	seq := mustRun(t, tg, WithRuns(16), WithSeed(3), WithWorkers(1), WithChains())
	par := mustRun(t, tg, WithRuns(16), WithSeed(3), WithWorkers(4), WithChains())
	sj, err := json.Marshal(seq.Warnings)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(par.Warnings)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Errorf("warning stats differ across worker counts:\nworkers=1: %s\nworkers=4: %s", sj, pj)
	}
}

// TestNDJSONSometimesCarriesBothTokens is the regression test for the
// token contract: every sometimes-classified warning line in the NDJSON
// stream must carry BOTH its witness and its counter-witness replay
// token. A consumer debugging a schedule-dependent warning needs the
// pair — one schedule that shows the bug and one that does not.
func TestNDJSONSometimesCarriesBothTokens(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	res := mustRun(t, tg, WithRuns(24), WithSeed(3), WithChains())
	var buf bytes.Buffer
	if err := res.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sometimes := 0
	scanner := bufio.NewScanner(&buf)
	for scanner.Scan() {
		var line struct {
			Kind           string `json:"kind"`
			Key            string `json:"key"`
			Outcome        string `json:"outcome"`
			Witness        string `json:"witness"`
			CounterWitness string `json:"counterWitness"`
			Chain          []any  `json:"chain"`
		}
		if err := json.Unmarshal(scanner.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		if line.Kind != KindWarning || line.Outcome != string(OutcomeSometimes) {
			continue
		}
		sometimes++
		if line.Witness == "" {
			t.Errorf("%s: sometimes warning line without witness token", line.Key)
		}
		if line.CounterWitness == "" {
			t.Errorf("%s: sometimes warning line without counter-witness token", line.Key)
		}
		if len(line.Chain) == 0 {
			t.Errorf("%s: sometimes warning line without chain (explored with WithChains)", line.Key)
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if sometimes == 0 {
		t.Fatal("no sometimes-classified warning line in the stream; the regression test exercised nothing")
	}
}
