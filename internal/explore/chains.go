package explore

import (
	"asyncg"
	"asyncg/internal/asyncgraph"
	"asyncg/internal/provenance"
)

// annotateReport stamps provenance onto every warning of a replayed
// report: the replay token that reproduces the run, and the async
// causal chain walked backwards from the warning's graph node.
func annotateReport(report *asyncg.Report, token string) {
	if report == nil || report.Graph == nil {
		return
	}
	pw := provenance.NewWalker(report.Graph)
	for i := range report.Warnings {
		report.Warnings[i].ReplayToken = token
		report.Warnings[i].Chain = pw.Chain(report.Warnings[i].Node)
	}
}

// AttachChains fills WarningStat.Chain for every classified warning by
// replaying each distinct witness token once and walking the warning's
// async causal chain on the replayed graph. Chains are attached *after*
// aggregation on purpose: they are a pure, deterministic function of
// (target, witness token), so a fleet coordinator attaching them to its
// merged Result (Fold.Finish) produces byte-identical chains to a
// single-process exploration — the merge invariant survives. With
// debugStacks the replays run under asyncg.WithDebugStacks, so every
// hop carries its creation call site.
//
// A replay that fails or produces no graph leaves the affected chains
// empty — chains are additive diagnostics, never a reason to fail an
// exploration.
func AttachChains(t Target, res *Result, debugStacks bool) {
	// chains memoizes one replay per distinct witness token: token →
	// warning key → chain.
	chains := make(map[string]map[string][]asyncgraph.ChainHop)
	for i := range res.Warnings {
		ws := &res.Warnings[i]
		if ws.Witness == "" {
			continue
		}
		km, ok := chains[ws.Witness]
		if !ok {
			km = chainsForToken(t, ws.Witness, debugStacks)
			chains[ws.Witness] = km
		}
		ws.Chain = km[ws.Key]
	}
}

// chainsForToken replays one schedule and indexes, by exploration key,
// the chain of the first warning of each key in report order — the one
// Replay stamps first. Later warnings of a key are not walked: a
// callback that reschedules itself a hundred times warns a hundred
// times from one location, each chain two hops longer than the last,
// and a key keeps one chain.
func chainsForToken(t Target, token string, debugStacks bool) map[string][]asyncgraph.ChainHop {
	var extra []asyncg.Option
	if debugStacks {
		extra = append(extra, asyncg.WithDebugStacks())
	}
	report, _, err := replay(t, token, extra)
	if err != nil || report == nil || report.Graph == nil {
		return nil
	}
	pw, in := provenance.NewWalker(report.Graph), newIntern()
	out := make(map[string][]asyncgraph.ChainHop)
	for _, w := range report.Warnings {
		key := in.key(w)
		if _, dup := out[key]; !dup {
			out[key] = pw.Chain(w.Node)
		}
	}
	return out
}
