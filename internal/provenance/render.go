package provenance

import (
	"fmt"
	"io"

	"asyncg/internal/asyncgraph"
)

// symbolFor maps a hop's node-kind tag to the paper's glyph.
func symbolFor(kind string) string {
	switch kind {
	case "CR":
		return "□"
	case "CE":
		return "○"
	case "CT":
		return "★"
	case "OB":
		return "△"
	default:
		return "?"
	}
}

// connectorFor renders the causal step into the hop ("" for the anchor).
func connectorFor(step string) string {
	switch step {
	case StepTrigger:
		return "↑ triggered by  "
	case StepRegistration:
		return "↑ registered at "
	case StepContext:
		return "↑ created in    "
	default:
		return ""
	}
}

// Render writes a chain as a human-readable async stack trace, one hop
// per line, each prefixed with indent. The anchor hop comes first; every
// later line names the causal step that led to it. Debug-stack frames
// (when captured under -debug-stacks) follow their hop, indented further.
//
//	□ t2:promise  L307: on('foo') (promise_cases.go:307)
//	  ↑ created in    ○ t2:promise  L306: reaction (promise_cases.go:306)
//	  ↑ registered at □ t1:main  L306: then (promise_cases.go:306)
func Render(w io.Writer, chain []asyncgraph.ChainHop, indent string) error {
	for i, h := range chain {
		prefix := indent
		if i > 0 {
			prefix += "  " + connectorFor(h.Step)
		}
		tick := h.Tick
		if tick == "" {
			tick = "t?"
		}
		if _, err := fmt.Fprintf(w, "%s%s %-12s %s (%s)\n", prefix, symbolFor(h.Kind), tick, h.Label, h.Loc); err != nil {
			return err
		}
		for _, f := range h.Stack {
			if _, err := fmt.Fprintf(w, "%s      at %s\n", indent, f); err != nil {
				return err
			}
		}
	}
	return nil
}
