package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"asyncg/internal/asyncgraph"
)

// runViz implements the "asyncg viz" subcommand: it renders an Async
// Graph JSON log (as written by -json, -dump-all, or Graph.WriteJSON) as
// DOT, or as a standalone SVG with -svg — the offline equivalent of the
// artifact's visualization website. A malformed log is rejected before
// anything is rendered. It returns the process exit code.
func runViz(args []string) int {
	fs := flag.NewFlagSet("viz", flag.ExitOnError)
	title := fs.String("title", "", "graph title")
	svg := fs.Bool("svg", false, "emit a standalone SVG instead of DOT")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: asyncg viz [-title t] [-svg] <graph.json|->\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return exitUsage
	}
	in := io.Reader(os.Stdin)
	if name := fs.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitUsage
		}
		defer f.Close()
		in = f
	}
	g, err := asyncgraph.ReadJSON(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asyncg viz: parse:", err)
		return exitUsage
	}
	write := g.WriteDOT
	if *svg {
		write = g.WriteSVG
	}
	if err := write(os.Stdout, *title); err != nil {
		fmt.Fprintln(os.Stderr, "asyncg viz: write:", err)
		return exitUsage
	}
	return exitOK
}
