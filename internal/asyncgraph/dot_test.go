package asyncgraph

import (
	"bytes"
	"strings"
	"testing"
)

// TestDOTCanonicalOrder: DOT emission must not depend on the in-memory
// order of the tick, node, and edge slices — equal graphs render to
// equal bytes, so two runs (or a run and its replay) can be diffed.
func TestDOTCanonicalOrder(t *testing.T) {
	a := fpGraph([]int{0, 1, 2})
	b := fpGraph([]int{0, 1, 2})
	// Scramble every slice whose order WriteDOT must not observe.
	b.Edges[0], b.Edges[1] = b.Edges[1], b.Edges[0]
	b.Ticks[0].Nodes[0], b.Ticks[0].Nodes[2] = b.Ticks[0].Nodes[2], b.Ticks[0].Nodes[0]
	if got, want := b.DOT("t"), a.DOT("t"); got != want {
		t.Errorf("DOT depends on slice order:\n--- canonical ---\n%s\n--- scrambled ---\n%s", want, got)
	}
}

// TestDOTStableAcrossJSONRoundtrip: a graph written to the JSON log
// format and read back renders to the identical DOT bytes, so asyncg viz
// output of a dumped log matches asyncg -dot of the live run.
func TestDOTStableAcrossJSONRoundtrip(t *testing.T) {
	g := fpGraph([]int{2, 0, 1})
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.DOT("t"), g.DOT("t"); got != want {
		t.Errorf("DOT changed across JSON roundtrip:\n--- live ---\n%s\n--- roundtrip ---\n%s", want, got)
	}
}

// TestDOTSortsEdgesByEndpoints guards the canonical edge order: an
// edge added "late" between early nodes still sorts next to its peers.
func TestDOTSortsEdgesByEndpoints(t *testing.T) {
	g := fpGraph([]int{0, 1, 2})
	g.AddEdge(g.Nodes[0].ID, g.Nodes[2].ID, EdgeDirect, "")
	dot := g.DOT("t")
	first := strings.Index(dot, "n0 ->")
	last := strings.LastIndex(dot, "n2 ->")
	if first == -1 || last == -1 || first > last {
		t.Fatalf("edges not sorted by source id:\n%s", dot)
	}
}
