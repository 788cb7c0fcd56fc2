package asyncgraph_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"asyncg/internal/asyncgraph"
	"asyncg/internal/casestudy"
)

// TestReadJSONRejectsMalformed covers each fail-closed rule of ReadJSON:
// a log that names a node that does not exist, or a kind the writer
// never emits, is an error — never a graph that panics when rendered.
func TestReadJSONRejectsMalformed(t *testing.T) {
	const two = `"nodes":[{"id":0,"kind":"CR"},{"id":1,"kind":"CE"}]`
	cases := []struct {
		name, in, err string
	}{
		{"bad JSON", `{"nodes":`, "unexpected EOF"},
		{"node id off its position", `{"nodes":[{"id":1,"kind":"CR"}]}`, "node 0 has id 1"},
		{"unknown node kind", `{"nodes":[{"id":0,"kind":"XX"}]}`, `node 0: unknown kind "XX"`},
		{"missing node kind", `{"nodes":[{"id":0}]}`, `node 0: unknown kind ""`},
		{"unknown edge kind", `{` + two + `,"edges":[{"from":0,"to":1,"kind":"dotted"}]}`, `edge 0: unknown kind "dotted"`},
		{"edge from out of range", `{` + two + `,"edges":[{"from":-1,"to":1,"kind":"direct"}]}`, "edge 0: -1 -> 1 names a node outside [0, 2)"},
		{"edge to out of range", `{` + two + `,"edges":[{"from":0,"to":2,"kind":"binding"}]}`, "edge 0: 0 -> 2 names a node outside [0, 2)"},
		{"tick names unknown node", `{"ticks":[{"index":0,"phase":"main","nodes":[9]}],"nodes":[]}`, "tick 0: node 9 outside [0, 0)"},
		{"tick names negative node", `{` + two + `,"ticks":[{"index":1,"phase":"main","nodes":[0,-1]}]}`, "tick 0: node -1 outside [0, 2)"},
		{"warning node out of range", `{` + two + `,"warnings":[{"category":"x","message":"m","node":2}]}`, "warning 0: node 2 is neither -1 nor in [0, 2)"},
		{"warning node below NoNode", `{` + two + `,"warnings":[{"category":"x","message":"m","node":-2}]}`, "warning 0: node -2 is neither -1 nor in [0, 2)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := asyncgraph.ReadJSON(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("accepted: %d nodes, %d edges, %d ticks", len(g.Nodes), len(g.Edges), len(g.Ticks))
			}
			if !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("error %q, want it to mention %q", err, tc.err)
			}
		})
	}

	// The boundaries are accepted: program-level warnings (NoNode) and
	// the last node of the graph.
	ok := `{` + two + `,"edges":[{"from":1,"to":0,"kind":"relation","label":"then"}],` +
		`"ticks":[{"index":1,"phase":"main","nodes":[0,1]}],` +
		`"warnings":[{"category":"x","message":"m","node":-1},{"category":"y","message":"m","node":1}]}`
	if _, err := asyncgraph.ReadJSON(strings.NewReader(ok)); err != nil {
		t.Fatalf("well-formed log rejected: %v", err)
	}
}

// caseGraphLogs returns the JSON log of every case study's buggy run —
// the files `asyncg -dump-all` writes.
func caseGraphLogs(tb testing.TB) map[string][]byte {
	tb.Helper()
	logs := make(map[string][]byte)
	for _, c := range casestudy.All() {
		var buf bytes.Buffer
		if err := casestudy.RunBuggy(c).Report.Graph.WriteJSON(&buf); err != nil {
			tb.Fatal(err)
		}
		logs[c.ID] = buf.Bytes()
	}
	return logs
}

// TestReadJSONRoundTripsCaseGraphs checks that every graph the case
// corpus produces passes the validation and re-serializes to the same
// bytes.
func TestReadJSONRoundTripsCaseGraphs(t *testing.T) {
	values := 0
	for id, log := range caseGraphLogs(t) {
		g, err := asyncgraph.ReadJSON(bytes.NewReader(log))
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		for _, n := range g.Nodes {
			if n.ValueStr != "" {
				values++
			}
		}
		var again bytes.Buffer
		if err := g.WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), log) {
			t.Errorf("%s: JSON round trip changed the log", id)
		}
	}
	// Promise triggers log their settlement value as "value"; the byte
	// comparison covers that field only if some case logs one.
	if values == 0 {
		t.Error(`no case graph read back a node "value"`)
	}
}

// FuzzReadJSON feeds arbitrary logs to ReadJSON, seeded with the case
// corpus' graphs: an input is either rejected or renders as DOT and SVG
// without panicking, and re-serializing an accepted graph yields a log
// that reads back to the same bytes.
func FuzzReadJSON(f *testing.F) {
	for _, log := range caseGraphLogs(f) {
		f.Add(log)
	}
	f.Add([]byte(`{"ticks":[{"index":0,"phase":"main","nodes":[9]}],"nodes":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := asyncgraph.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.WriteDOT(io.Discard, "fuzz"); err != nil {
			t.Fatal(err)
		}
		if err := g.WriteSVG(io.Discard, "fuzz"); err != nil {
			t.Fatal(err)
		}
		var first bytes.Buffer
		if err := g.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		back, err := asyncgraph.ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-serialized graph rejected: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip not stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
