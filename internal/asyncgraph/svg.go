package asyncgraph

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// The SVG exporter renders an Async Graph the way the paper's figures
// and the artifact's website do: event-loop ticks as vertical bands laid
// out left to right, nodes inside their tick using the paper's shapes
// (box=CR, circle=CE, star=CT, triangle=OB), solid arrows for causal
// edges and dashed ones for bindings and relations. The output is a
// self-contained SVG document viewable in any browser.

// svg layout constants (pixels).
const (
	svgNodeW    = 170
	svgNodeH    = 34
	svgVGap     = 22
	svgHGap     = 70
	svgTopPad   = 64
	svgLeftPad  = 30
	svgTickPadY = 16
)

// svgPos is a node's layout slot.
type svgPos struct {
	x, y int // center coordinates
}

// WriteSVG renders the graph as a standalone SVG document.
func (g *Graph) WriteSVG(w io.Writer, title string) error {
	// Layout: one column per committed tick, plus one trailing column
	// for nodes of an uncommitted (truncated) tick.
	columns := make([][]NodeID, len(g.Ticks))
	for i, tk := range g.Ticks {
		columns[i] = tk.Nodes
	}
	var loose []NodeID
	for _, n := range g.Nodes {
		if n.Tick == 0 {
			loose = append(loose, n.ID)
		}
	}
	if len(loose) > 0 {
		columns = append(columns, loose)
	}

	pos := make(map[NodeID]svgPos)
	maxRows := 0
	for col, nodes := range columns {
		if len(nodes) > maxRows {
			maxRows = len(nodes)
		}
		for row, id := range nodes {
			pos[id] = svgPos{
				x: svgLeftPad + col*(svgNodeW+svgHGap) + svgNodeW/2,
				y: svgTopPad + svgTickPadY + row*(svgNodeH+svgVGap) + svgNodeH/2,
			}
		}
	}
	width := svgLeftPad*2 + len(columns)*(svgNodeW+svgHGap)
	height := svgTopPad + svgTickPadY*2 + maxRows*(svgNodeH+svgVGap) + 40
	if maxRows == 0 {
		height = svgTopPad + 80
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="Helvetica,Arial,sans-serif">`+"\n", width, height)
	b.WriteString(`<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="7" markerHeight="7" orient="auto-start-reverse"><path d="M 0 0 L 10 5 L 0 10 z"/></marker></defs>` + "\n")
	fmt.Fprintf(&b, `<text x="%d" y="28" font-size="16" font-weight="bold">%s</text>`+"\n", svgLeftPad, escapeXML(title))

	// Tick bands and labels.
	for col := range columns {
		x := svgLeftPad + col*(svgNodeW+svgHGap) - svgHGap/4
		label := "(truncated)"
		if col < len(g.Ticks) {
			label = g.Ticks[col].Name()
		}
		fmt.Fprintf(&b,
			`<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#999" stroke-dasharray="6 4"/>`+"\n",
			x, svgTopPad, svgNodeW+svgHGap/2, height-svgTopPad-12)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="13" fill="#444">%s</text>`+"\n",
			x+6, svgTopPad-6, escapeXML(label))
	}

	// Edges under nodes.
	for _, e := range g.Edges {
		from, okF := pos[e.From]
		to, okT := pos[e.To]
		if !okF || !okT {
			continue
		}
		style := `stroke="#333"`
		marker := ` marker-end="url(#arrow)"`
		if e.Kind != EdgeDirect {
			style = `stroke="#777" stroke-dasharray="5 4"`
		}
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" %s%s/>`+"\n",
			from.x, from.y, to.x, to.y, style, marker)
		if e.Label != "" {
			fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10" fill="#777">%s</text>`+"\n",
				(from.x+to.x)/2, (from.y+to.y)/2-4, escapeXML(e.Label))
		}
	}

	// Nodes, in id order so equal graphs render to equal bytes.
	ids := make([]NodeID, 0, len(pos))
	for id := range pos {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n, p := g.Node(id), pos[id]
		stroke := "#222"
		if len(n.Warnings) > 0 {
			stroke = "#c00"
		}
		b.WriteString(nodeShapeSVG(n, p, stroke))
		label := n.Label
		if len(n.Warnings) > 0 {
			label = "⚡ " + label
		}
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" text-anchor="middle">%s</text>`+"\n",
			p.x, p.y+4, escapeXML(truncateLabel(label, 26)))
		if len(n.Warnings) > 0 {
			fmt.Fprintf(&b, `<title>%s</title>`+"\n", escapeXML(strings.Join(n.Warnings, "\n")))
		}
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// nodeShapeSVG draws the paper's glyph for the node kind.
func nodeShapeSVG(n *Node, p svgPos, stroke string) string {
	w, h := svgNodeW-14, svgNodeH-6
	switch n.Kind {
	case CE:
		return fmt.Sprintf(`<ellipse cx="%d" cy="%d" rx="%d" ry="%d" fill="#fff" stroke="%s"/>`+"\n",
			p.x, p.y, w/2, h/2, stroke)
	case CT:
		return fmt.Sprintf(`<path d="%s" fill="#fff" stroke="%s"/>`+"\n", starPath(p.x, p.y, h), stroke)
	case OB:
		return fmt.Sprintf(`<polygon points="%d,%d %d,%d %d,%d" fill="#fff" stroke="%s"/>`+"\n",
			p.x, p.y-h/2-4, p.x-w/3, p.y+h/2+2, p.x+w/3, p.y+h/2+2, stroke)
	default: // CR
		return fmt.Sprintf(`<rect x="%d" y="%d" width="%d" height="%d" fill="#fff" stroke="%s"/>`+"\n",
			p.x-w/2, p.y-h/2, w, h, stroke)
	}
}

// starPath draws a five-pointed star centered at (cx, cy).
func starPath(cx, cy, size int) string {
	// Precomputed unit-star offsets (outer/inner alternating), scaled.
	type pt struct{ dx, dy float64 }
	unit := []pt{
		{0, -1}, {0.2245, -0.309}, {0.951, -0.309}, {0.3633, 0.118},
		{0.5878, 0.809}, {0, 0.382}, {-0.5878, 0.809}, {-0.3633, 0.118},
		{-0.951, -0.309}, {-0.2245, -0.309},
	}
	s := float64(size) * 0.75
	var sb strings.Builder
	for i, u := range unit {
		cmd := "L"
		if i == 0 {
			cmd = "M"
		}
		fmt.Fprintf(&sb, "%s %.1f %.1f ", cmd, float64(cx)+u.dx*s, float64(cy)+u.dy*s)
	}
	sb.WriteString("Z")
	return sb.String()
}

func truncateLabel(s string, max int) string {
	runes := []rune(s)
	if len(runes) <= max {
		return s
	}
	return string(runes[:max-1]) + "…"
}

func escapeXML(s string) string {
	r := strings.NewReplacer(
		"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&apos;",
	)
	return r.Replace(s)
}
