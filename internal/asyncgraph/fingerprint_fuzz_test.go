package asyncgraph_test

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"asyncg/internal/asyncgraph"
	"asyncg/internal/casestudy"
	"asyncg/internal/loc"
)

// The fuzz target's alphabet: every node attribute and edge label is
// drawn from a short list, so that random inputs build graphs whose
// nodes often agree on most attributes — the graphs on which a
// fingerprint is most likely to confuse two shapes.
var (
	fuzzNodeKinds = []asyncgraph.NodeKind{asyncgraph.CR, asyncgraph.CE, asyncgraph.CT, asyncgraph.OB}
	fuzzAPIs      = []string{"", "setTimeout", "setImmediate", "process.nextTick", "emitter.on", "emitter.emit", "promise.then", "fs.readFile"}
	fuzzEvents    = []string{"", "data", "end", "error", "resolve"}
	fuzzFuncs     = []string{"", "main", "onData", "onEnd", "aCallbackNameLongerThanAWord"}
	fuzzLocs      = []loc.Loc{{}, {File: "a.go", Line: 1}, {File: "a.go", Line: 2}, {File: "b.go", Line: 1}, {File: "emitter_cases.go", Line: 185}}
	fuzzPhases    = []string{"main", "nextTick", "promise", "timer", "io", "immediate", "close"}
	fuzzRemoved   = []bool{false, true}
	fuzzEdgeKinds = []asyncgraph.EdgeKind{asyncgraph.EdgeDirect, asyncgraph.EdgeBinding, asyncgraph.EdgeRelation}
	fuzzLabels    = []string{"", "then", "link", "connection"}
)

// Attribute positions of a fuzz node and a fuzz edge, and the alphabet
// size at each.
var (
	fuzzNodeAttrs = [...]int{len(fuzzNodeKinds), len(fuzzAPIs), len(fuzzEvents), len(fuzzFuncs), len(fuzzLocs), len(fuzzPhases), len(fuzzRemoved)}
	fuzzEdgeAttrs = [...]int{len(fuzzEdgeKinds), len(fuzzLabels)}
)

// fuzzNode and fuzzEdge hold alphabet indices; an edge also names its
// endpoints by position.
type (
	fuzzNode [len(fuzzNodeAttrs)]int
	fuzzEdge struct {
		from, to int
		attrs    [len(fuzzEdgeAttrs)]int
	}
)

// decodeFuzzGraph reads the fuzz input format: a node count byte, then
// one byte per attribute of each node, then four bytes per edge (from,
// to, kind, label). Every byte is reduced into range, so any input with
// a non-zero count decodes; a trailing partial edge is ignored.
func decodeFuzzGraph(data []byte) ([]fuzzNode, []fuzzEdge) {
	if len(data) == 0 || data[0] == 0 {
		return nil, nil
	}
	n := int(data[0])
	data = data[1:]
	var nodes []fuzzNode
	for i := 0; i < n; i++ {
		var nd fuzzNode
		for a, size := range fuzzNodeAttrs {
			if len(data) > 0 {
				nd[a] = int(data[0]) % size
				data = data[1:]
			}
		}
		nodes = append(nodes, nd)
	}
	var edges []fuzzEdge
	for ; len(data) >= 4; data = data[4:] {
		edges = append(edges, fuzzEdge{
			from:  int(data[0]) % n,
			to:    int(data[1]) % n,
			attrs: [2]int{int(data[2]) % fuzzEdgeAttrs[0], int(data[3]) % fuzzEdgeAttrs[1]},
		})
	}
	return nodes, edges
}

// buildFuzzGraph builds the graph with node i at position perm[i], each
// node in a tick of its own, and the edges in the given order.
func buildFuzzGraph(nodes []fuzzNode, edges []fuzzEdge, perm []int) *asyncgraph.Graph {
	g := asyncgraph.NewGraph()
	g.Nodes = make([]*asyncgraph.Node, len(nodes))
	g.Ticks = make([]*asyncgraph.Tick, len(nodes))
	for i, nd := range nodes {
		id := asyncgraph.NodeID(perm[i])
		g.Nodes[id] = &asyncgraph.Node{
			ID: id, Kind: fuzzNodeKinds[nd[0]], API: fuzzAPIs[nd[1]], Event: fuzzEvents[nd[2]],
			Func: fuzzFuncs[nd[3]], Loc: fuzzLocs[nd[4]], Removed: fuzzRemoved[nd[6]], Tick: perm[i] + 1,
		}
		g.Ticks[id] = &asyncgraph.Tick{Index: perm[i] + 1, Phase: fuzzPhases[nd[5]], Nodes: []asyncgraph.NodeID{id}}
	}
	for _, e := range edges {
		g.AddEdge(asyncgraph.NodeID(perm[e.from]), asyncgraph.NodeID(perm[e.to]), fuzzEdgeKinds[e.attrs[0]], fuzzLabels[e.attrs[1]])
	}
	return g
}

// encodeFuzzGraph writes a graph in the fuzz input format, mapping each
// attribute to its alphabet index, or to a stable hash of it when the
// alphabet lacks it. Graphs over 255 nodes keep their first 255 nodes
// and the edges among them.
func encodeFuzzGraph(g *asyncgraph.Graph) []byte {
	n := min(len(g.Nodes), 255)
	out := []byte{byte(n)}
	for _, nd := range g.Nodes[:n] {
		phase := ""
		if tk := g.TickOf(nd.ID); tk != nil {
			phase = tk.Phase
		}
		removed := byte(0)
		if nd.Removed {
			removed = 1
		}
		out = append(out, byte(nd.Kind), alphabetIndex(fuzzAPIs, nd.API), alphabetIndex(fuzzEvents, nd.Event),
			alphabetIndex(fuzzFuncs, nd.Func), alphabetIndex(fuzzLocs, nd.Loc), alphabetIndex(fuzzPhases, phase), removed)
	}
	for _, e := range g.Edges {
		if int(e.From) < n && int(e.To) < n {
			out = append(out, byte(e.From), byte(e.To), byte(e.Kind), alphabetIndex(fuzzLabels, e.Label))
		}
	}
	return out
}

// alphabetIndex is v's index in alphabet, or a hash of v for a value
// the alphabet lacks.
func alphabetIndex[T comparable](alphabet []T, v T) byte {
	if i := slices.Index(alphabet, v); i >= 0 {
		return byte(i)
	}
	h := fnv.New32a()
	fmt.Fprint(h, v)
	return byte(h.Sum32())
}

// FuzzFingerprint checks the fingerprint's invariances and its
// sensitivity on graphs built from the fuzz input: renumbering the
// nodes (and with them the ticks) or reordering the edges never changes
// Fingerprint, and changing one schedule-stable attribute — a node's
// kind, API, event, callback, location, phase or removed flag, or an
// edge's kind or label — always does. The seeds are the case corpus'
// graphs.
func FuzzFingerprint(f *testing.F) {
	for _, c := range casestudy.All() {
		f.Add(encodeFuzzGraph(casestudy.RunBuggy(c).Report.Graph))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nodes, edges := decodeFuzzGraph(data)
		if len(nodes) == 0 {
			return
		}
		n := len(nodes)
		identity := make([]int, n)
		renumbered := make([]int, n)
		for i := range identity {
			identity[i] = i
			renumbered[i] = (n - 1 - i + len(data)) % n
		}
		fp := buildFuzzGraph(nodes, edges, identity).Fingerprint()

		reordered := slices.Clone(edges)
		slices.Reverse(reordered)
		if len(reordered) > 1 {
			k := len(data) % len(reordered)
			reordered = slices.Concat(reordered[k:], reordered[:k])
		}
		if got := buildFuzzGraph(nodes, reordered, renumbered).Fingerprint(); got != fp {
			t.Fatalf("renumbering nodes and reordering edges changed the fingerprint: %s, want %s", got, fp)
		}

		at := len(data) % n
		for a, size := range fuzzNodeAttrs {
			changed := slices.Clone(nodes)
			changed[at][a] = (changed[at][a] + 1) % size
			if got := buildFuzzGraph(changed, edges, identity).Fingerprint(); got == fp {
				t.Fatalf("changing attribute %d of node %d (%v -> %v) left the fingerprint at %s", a, at, nodes[at], changed[at], fp)
			}
		}
		if len(edges) == 0 {
			return
		}
		at = len(data) % len(edges)
		for a, size := range fuzzEdgeAttrs {
			changed := slices.Clone(edges)
			changed[at].attrs[a] = (changed[at].attrs[a] + 1) % size
			if got := buildFuzzGraph(nodes, changed, identity).Fingerprint(); got == fp {
				t.Fatalf("changing attribute %d of edge %d (%+v -> %+v) left the fingerprint at %s", a, at, edges[at], changed[at], fp)
			}
		}
	})
}
