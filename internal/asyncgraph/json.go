package asyncgraph

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"asyncg/internal/loc"
	"asyncg/internal/vm"
)

// jsonGraph is the serialized form of a graph: the log format the
// paper's artifact uploads to its visualization website.
type jsonGraph struct {
	Ticks    []jsonTick    `json:"ticks"`
	Nodes    []jsonNode    `json:"nodes"`
	Edges    []jsonEdge    `json:"edges"`
	Warnings []jsonWarning `json:"warnings,omitempty"`
}

type jsonTick struct {
	Index int    `json:"index"`
	Phase string `json:"phase"`
	Nodes []int  `json:"nodes"`
}

type jsonNode struct {
	ID       int      `json:"id"`
	Kind     string   `json:"kind"`
	Tick     int      `json:"tick"`
	Loc      string   `json:"loc"`
	API      string   `json:"api"`
	Event    string   `json:"event,omitempty"`
	Label    string   `json:"label"`
	Obj      uint64   `json:"obj,omitempty"`
	Func     string   `json:"func,omitempty"`
	Execs    int      `json:"executions,omitempty"`
	Removed  bool     `json:"removed,omitempty"`
	Warnings []string `json:"warnings,omitempty"`
	Value    string   `json:"value,omitempty"`
	Stack    []string `json:"stack,omitempty"`
}

type jsonEdge struct {
	From  int    `json:"from"`
	To    int    `json:"to"`
	Kind  string `json:"kind"`
	Label string `json:"label,omitempty"`
}

type jsonWarning struct {
	Category string `json:"category"`
	Message  string `json:"message"`
	Node     int    `json:"node"`
	Loc      string `json:"loc"`
}

// ReadJSON parses a graph previously serialized with WriteJSON — the
// upload path of the paper's visualization website: AsyncG dumps a log,
// the viewer reconstructs and renders the graph. It fails closed: a log
// whose node ids are not their positions, whose node or edge kinds are
// unknown, or whose edges, ticks or warnings name a node that does not
// exist is rejected with an error, so every accepted graph renders.
func ReadJSON(r io.Reader) (*Graph, error) {
	var in jsonGraph
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, err
	}
	n := len(in.Nodes)
	inRange := func(id int) bool { return id >= 0 && id < n }
	g := NewGraph()
	for i, jn := range in.Nodes {
		if jn.ID != i {
			return nil, fmt.Errorf("asyncgraph: node %d has id %d", i, jn.ID)
		}
		kind, ok := nodeKinds[jn.Kind]
		if !ok {
			return nil, fmt.Errorf("asyncgraph: node %d: unknown kind %q", i, jn.Kind)
		}
		g.addNode(&Node{
			Kind:       kind,
			Tick:       jn.Tick,
			Loc:        loc.Parse(jn.Loc),
			API:        jn.API,
			Event:      jn.Event,
			Label:      jn.Label,
			Func:       jn.Func,
			Obj:        objRefFor(jn.Obj, jn.API),
			Executions: jn.Execs,
			Removed:    jn.Removed,
			Warnings:   jn.Warnings,
			ValueStr:   jn.Value,
			Stack:      jn.Stack,
		})
	}
	for i, je := range in.Edges {
		kind, ok := edgeKinds[je.Kind]
		if !ok {
			return nil, fmt.Errorf("asyncgraph: edge %d: unknown kind %q", i, je.Kind)
		}
		if !inRange(je.From) || !inRange(je.To) {
			return nil, fmt.Errorf("asyncgraph: edge %d: %d -> %d names a node outside [0, %d)", i, je.From, je.To, n)
		}
		g.AddEdge(NodeID(je.From), NodeID(je.To), kind, je.Label)
	}
	for i, jt := range in.Ticks {
		t := &Tick{Index: jt.Index, Phase: jt.Phase}
		for _, id := range jt.Nodes {
			if !inRange(id) {
				return nil, fmt.Errorf("asyncgraph: tick %d: node %d outside [0, %d)", i, id, n)
			}
			t.Nodes = append(t.Nodes, NodeID(id))
		}
		g.Ticks = append(g.Ticks, t)
	}
	for i, jw := range in.Warnings {
		if jw.Node != int(NoNode) && !inRange(jw.Node) {
			return nil, fmt.Errorf("asyncgraph: warning %d: node %d is neither %d nor in [0, %d)", i, jw.Node, NoNode, n)
		}
		g.Warnings = append(g.Warnings, Warning{
			Category: Category(jw.Category),
			Message:  jw.Message,
			Node:     NodeID(jw.Node),
			Loc:      loc.Parse(jw.Loc),
		})
	}
	return g, nil
}

// nodeKinds and edgeKinds invert NodeKind.String and EdgeKind.String.
var (
	nodeKinds = map[string]NodeKind{"CR": CR, "CE": CE, "CT": CT, "OB": OB}
	edgeKinds = map[string]EdgeKind{"direct": EdgeDirect, "binding": EdgeBinding, "relation": EdgeRelation}
)

// objRefFor reconstructs enough object identity for graph queries; the
// original ObjKind is recovered from the node's API family.
func objRefFor(id uint64, api string) vm.ObjRef {
	if id == 0 {
		return vm.ObjRef{}
	}
	ref := vm.ObjRef{ID: id}
	switch {
	case strings.HasPrefix(api, "promise") || strings.HasPrefix(api, "Promise") || api == "await":
		ref.Kind = vm.ObjPromise
	case strings.HasPrefix(api, "set") || strings.HasPrefix(api, "clear"):
		ref.Kind = vm.ObjTimer
	default:
		// Emitters, including wrapped listener APIs (http.createServer).
		ref.Kind = vm.ObjEmitter
	}
	return ref
}

// WriteJSON serializes the graph as indented JSON.
func (g *Graph) WriteJSON(w io.Writer) error {
	out := jsonGraph{}
	for _, t := range g.Ticks {
		jt := jsonTick{Index: t.Index, Phase: t.Phase, Nodes: make([]int, len(t.Nodes))}
		for i, id := range t.Nodes {
			jt.Nodes[i] = int(id)
		}
		out.Ticks = append(out.Ticks, jt)
	}
	for _, n := range g.Nodes {
		out.Nodes = append(out.Nodes, jsonNode{
			ID:       int(n.ID),
			Kind:     n.Kind.String(),
			Tick:     n.Tick,
			Loc:      n.Loc.String(),
			API:      n.API,
			Event:    n.Event,
			Label:    n.Label,
			Obj:      n.Obj.ID,
			Func:     n.Func,
			Execs:    n.Executions,
			Removed:  n.Removed,
			Warnings: n.Warnings,
			Value:    n.ValueStr,
			Stack:    n.Stack,
		})
	}
	for _, e := range g.Edges {
		out.Edges = append(out.Edges, jsonEdge{
			From: int(e.From), To: int(e.To), Kind: e.Kind.String(), Label: e.Label,
		})
	}
	for _, warn := range g.Warnings {
		out.Warnings = append(out.Warnings, jsonWarning{
			Category: string(warn.Category),
			Message:  warn.Message,
			Node:     int(warn.Node),
			Loc:      warn.Loc.String(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
