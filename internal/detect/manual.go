package detect

import (
	"fmt"

	"asyncg/internal/asyncgraph"
	"asyncg/internal/loc"
)

// The §VI-B bug patterns "are not necessarily leading to a bug, and more
// information is required to debug the root cause. Such bugs can be
// manually detected by checking the AG produced by AsyncG." The helpers
// in this file are the tool-assisted queries a developer runs against
// the graph.

// SyncExpectation is the result of ExplainCallbackDelay: evidence for
// (or against) the "expecting callbacks to run synchronously" mistake.
type SyncExpectation struct {
	Registration *asyncgraph.Node
	Executions   []*asyncgraph.Node
	// TickDistance is the number of ticks between registration and the
	// first execution; 0 means the callback ran in the registering tick
	// (synchronously), which is the behaviour the buggy code assumed.
	TickDistance int
}

// Asynchronous reports whether the callback ran in a later tick than its
// registration — i.e. code after the registering call that reads state
// set by the callback observed the pre-callback state.
func (s *SyncExpectation) Asynchronous() bool { return s.TickDistance > 0 }

// Warning converts the evidence into an expect-sync-callback warning.
func (s *SyncExpectation) Warning() asyncgraph.Warning {
	return asyncgraph.Warning{
		Category: CatExpectSyncCallback,
		Message: fmt.Sprintf(
			"callback registered at %s executes %d tick(s) later: code following the registration cannot observe its effects",
			s.Registration.Loc, s.TickDistance),
		Node: s.Registration.ID,
		Loc:  s.Registration.Loc,
	}
}

// ExplainCallbackDelay inspects the graph for the registration made at
// the given source location and reports how far (in ticks) its callback
// executions are from the registration — the §VI-B.1 query. It returns
// nil when no registration at that location is found.
func ExplainCallbackDelay(g *asyncgraph.Graph, at loc.Loc) *SyncExpectation {
	var cr *asyncgraph.Node
	for _, n := range g.NodesOfKind(asyncgraph.CR) {
		if n.Loc == at {
			cr = n
			break
		}
	}
	if cr == nil {
		return nil
	}
	out := &SyncExpectation{Registration: cr}
	for _, e := range g.EdgesTo(cr.ID) {
		if e.Kind != asyncgraph.EdgeBinding {
			continue
		}
		ce := g.Node(e.From)
		out.Executions = append(out.Executions, ce)
		if d := ce.Tick - cr.Tick; out.TickDistance == 0 || d < out.TickDistance {
			out.TickDistance = d
		}
	}
	return out
}
