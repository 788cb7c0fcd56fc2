// Command asyncg runs the reproduced bug case studies under the AsyncG
// tool and prints or exports their Async Graphs and warnings — the
// equivalent of the artifact's runExamples.sh plus Table I/II reporting.
//
// Usage:
//
//	asyncg -list                       list all case studies
//	asyncg -case SO-33330277           run a case (buggy version)
//	asyncg -case SO-33330277 -fixed    run the fixed version
//	asyncg -case fig4 -dot fig5.dot    export the graph in DOT
//	asyncg -case fig4 -json fig5.json  export the graph log (website format)
//	asyncg -case fig4 -trace t.json -trace-format chrome
//	                                   export an event trace (chrome://tracing)
//	asyncg -case fig4 -metrics         print the observability metrics report
//	asyncg -table1                     run all Table I cases and summarize
//	asyncg -table2                     print the related-work matrix
//	asyncg fig6                        regenerate Fig. 6(a) and 6(b)
//	asyncg fig6 -fig 6b -metrics       Fig. 6(b) plus the metrics report
//	asyncg viz graph.json > graph.dot  render a dumped graph log as DOT
//	asyncg -case fig4 -json /dev/stdout | asyncg viz -svg - > fig5.svg
//	                                   ... or as a standalone SVG
//	asyncg explore -case SO-17894000   explore the case's schedule space
//	asyncg explore -case SO-17894000 -replay <token>
//	                                   replay one recorded schedule
//	asyncg serve -addr 127.0.0.1:8321  run the HTTP analysis service
//	                                   (POST /v1/jobs, NDJSON streams)
//	asyncg fleet -workers <urls> -target <spec>
//	                                   shard one exploration across serve
//	                                   workers; merged output is identical
//	                                   to a single-process explore
//	asyncg fleet -workers <urls> -resume <dir>
//	                                   resume a killed coordinator from
//	                                   its journal directory
//
// Exit codes: 0 clean, 1 analysis findings (or a cancelled run),
// 2 usage/configuration errors — see exit.go.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"asyncg"
	"asyncg/internal/casestudy"
	"asyncg/internal/experiments"
	"asyncg/internal/trace"
)

func main() {
	// Subcommand dispatch; the flag-only interface below predates it.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "explore":
			os.Exit(runExplore(os.Args[2:]))
		case "serve":
			os.Exit(runServe(os.Args[2:]))
		case "fleet":
			os.Exit(runFleet(os.Args[2:]))
		case "fig6":
			os.Exit(runFig6(os.Args[2:]))
		case "viz":
			os.Exit(runViz(os.Args[2:]))
		}
	}
	var (
		list     = flag.Bool("list", false, "list case studies")
		caseID   = flag.String("case", "", "case id to run (see -list)")
		fixed    = flag.Bool("fixed", false, "run the fixed version")
		dotOut   = flag.String("dot", "", "write the Async Graph as DOT to this file")
		jsonOut  = flag.String("json", "", "write the Async Graph log as JSON to this file")
		svgOut   = flag.String("svg", "", "write the Async Graph as a standalone SVG to this file")
		table1   = flag.Bool("table1", false, "run all Table I cases")
		table2   = flag.Bool("table2", false, "print the Table II comparison matrix")
		timeline = flag.Bool("timeline", false, "print the tick-by-tick Async Graph timeline")
		dumpAll  = flag.String("dump-all", "", "run every case and write <dir>/<id>.{json,dot,svg} (the artifact's runExamples.sh)")
		maxTicks = flag.Int("maxticks", 0, "restrict exports to the first N ticks (the paper shows the first 3 ticks of Fig. 3)")
		traceOut = flag.String("trace", "", "write an event trace of the run to this file")
		traceFmt = flag.String("trace-format", "ndjson", "trace serialization: ndjson or chrome")
		metrics  = flag.Bool("metrics", false, "print the observability metrics report after the run")
	)
	flag.Parse()

	format, err := trace.ParseFormat(*traceFmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitUsage)
	}

	switch {
	case *dumpAll != "":
		dumpAllCases(*dumpAll)
	case *list:
		for _, c := range casestudy.All() {
			fmt.Printf("%-14s %-35s %s\n", c.ID, c.Category, c.Title)
		}
	case *table2:
		experiments.WriteTable2(os.Stdout)
	case *table1:
		runTable1()
	case *caseID != "":
		runCase(*caseID, *fixed, *dotOut, *jsonOut, *svgOut, *timeline, *maxTicks, *traceOut, format, *metrics)
	default:
		flag.Usage()
		os.Exit(exitUsage)
	}
}

// dumpAllCases reproduces the artifact's runExamples.sh: every case is
// executed under AsyncG and its graph log is written in all three
// formats, ready for asyncg viz or the original website.
func dumpAllCases(dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitUsage)
	}
	for _, c := range casestudy.All() {
		res := casestudy.RunBuggy(c)
		base := dir + "/" + c.ID
		writeFile(os.Stdout, base+".json", func(f *os.File) error {
			return res.Report.Graph.WriteJSON(f)
		})
		writeFile(os.Stdout, base+".dot", func(f *os.File) error {
			return res.Report.Graph.WriteDOT(f, c.ID)
		})
		writeFile(os.Stdout, base+".svg", func(f *os.File) error {
			return res.Report.Graph.WriteSVG(f, c.ID+" — "+c.Title)
		})
	}
}

func runTable1() {
	failures := 0
	fmt.Println("Table I — detected bugs")
	for _, c := range casestudy.Table1() {
		res := casestudy.RunBuggy(c)
		fmt.Println(res.Summary())
		if !res.Clean() {
			failures++
		}
		if c.Fixed != nil {
			fres := casestudy.RunFixed(c)
			fmt.Println(fres.Summary())
			if !fres.Clean() {
				failures++
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d case(s) did not meet expectations\n", failures)
		os.Exit(exitFindings)
	}
}

func runCase(id string, fixed bool, dotOut, jsonOut, svgOut string, timeline bool, maxTicks int, traceOut string, traceFormat asyncg.TraceFormat, metrics bool) {
	c, ok := casestudy.ByID(id)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown case %q (try -list)\n", id)
		os.Exit(exitUsage)
	}
	out := reportStream(dotOut, jsonOut, svgOut, traceOut)
	// Observability options ride along into the case's session.
	var extra []asyncg.Option
	var traceFile *os.File
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitUsage)
		}
		traceFile = f
		extra = append(extra, asyncg.WithTrace(f, traceFormat))
	}
	if metrics {
		extra = append(extra, asyncg.WithMetrics())
	}
	var res casestudy.Result
	if fixed {
		if c.Fixed == nil {
			fmt.Fprintf(os.Stderr, "case %s has no fixed version\n", id)
			os.Exit(exitUsage)
		}
		res = casestudy.RunFixed(c, extra...)
	} else {
		res = casestudy.RunBuggy(c, extra...)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitUsage)
		}
		fmt.Fprintf(out, "wrote %s\n", traceOut)
	}
	fmt.Fprintf(out, "%s — %s\n", c.ID, c.Title)
	fmt.Fprintf(out, "ticks: %d, graph: %d nodes / %d edges / %d ticks\n",
		res.Report.Ticks, len(res.Report.Graph.Nodes), len(res.Report.Graph.Edges), len(res.Report.Graph.Ticks))
	if res.Err != nil {
		fmt.Fprintf(out, "run stopped: %v (expected for starvation bugs)\n", res.Err)
	}
	for _, u := range res.Report.Uncaught {
		fmt.Fprintf(out, "uncaught exception in %s tick: %v\n", u.Phase, u.Thrown.Error())
	}
	if len(res.Report.Warnings) == 0 {
		fmt.Fprintln(out, "no warnings")
	}
	for _, w := range res.Report.Warnings {
		fmt.Fprintf(out, "⚡ %s\n", w)
	}
	if metrics && res.Report.Metrics != nil {
		fmt.Fprintln(out)
		if err := res.Report.Metrics.WriteText(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		fmt.Fprintln(out)
	}
	graph := res.Report.Graph
	if maxTicks > 0 {
		graph = graph.TickRange(1, maxTicks)
		fmt.Fprintf(out, "(exports restricted to the first %d ticks)\n", maxTicks)
	}
	if timeline {
		fmt.Fprintln(out)
		if err := graph.WriteTimeline(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	if dotOut != "" {
		writeFile(out, dotOut, func(f *os.File) error {
			return graph.WriteDOT(f, c.ID)
		})
	}
	if jsonOut != "" {
		writeFile(out, jsonOut, func(f *os.File) error {
			return graph.WriteJSON(f)
		})
	}
	if svgOut != "" {
		writeFile(out, svgOut, func(f *os.File) error {
			return graph.WriteSVG(f, c.ID)
		})
	}
}

// reportStream picks where runCase prints its human-readable report:
// stdout, unless one of the export paths is stdout itself (as in
// `asyncg -case fig4 -json /dev/stdout | asyncg viz -`), in which case
// the report moves to stderr so the export stays parseable.
func reportStream(paths ...string) *os.File {
	stdout, err := os.Stdout.Stat()
	if err != nil {
		return os.Stdout
	}
	for _, p := range paths {
		if p == "" {
			continue
		}
		if fi, err := os.Stat(p); err == nil && os.SameFile(fi, stdout) {
			return os.Stderr
		}
	}
	return os.Stdout
}

// writeFile creates path, fills it with write, and logs it to log.
func writeFile(log io.Writer, path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitUsage)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitUsage)
	}
	fmt.Fprintf(log, "wrote %s\n", path)
}
