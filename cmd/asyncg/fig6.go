package main

import (
	"flag"
	"fmt"
	"os"

	"asyncg/internal/experiments"
)

// runFig6 implements the "asyncg fig6" subcommand: it regenerates the
// paper's Fig. 6 — the AcmeAir throughput comparison under three
// instrumentation settings (6a) and the per-request async-API usage
// (6b), the equivalent of the artifact's scripts/figure6.sh — and
// returns the process exit code.
func runFig6(args []string) int {
	fs := flag.NewFlagSet("fig6", flag.ExitOnError)
	var (
		fig      = fs.String("fig", "all", "which figure to regenerate: 6a, 6b, or all")
		requests = fs.Int("requests", 0, "total client requests (default from harness)")
		clients  = fs.Int("clients", 0, "concurrent virtual clients")
		seed     = fs.Int64("seed", 1, "workload RNG seed")
		metrics  = fs.Bool("metrics", false, "print the observability metrics report next to Fig. 6b")
		out      = fs.String("out", "", "also write the Fig. 6a measurement as JSON, with the host, to this file")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: asyncg fig6 [-fig 6a|6b|all] [-requests N] [-clients N] [-seed N] [-metrics] [-out file]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	load := experiments.DefaultLoad()
	if *requests > 0 {
		load.Requests = *requests
	}
	if *clients > 0 {
		load.Clients = *clients
	}
	load.Seed = *seed

	switch *fig {
	case "6a":
		return fig6a(load, *out)
	case "6b":
		return fig6b(load, *metrics)
	case "all":
		if code := fig6a(load, *out); code != exitOK {
			return code
		}
		fmt.Println()
		return fig6b(load, *metrics)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		return exitUsage
	}
}

func fig6a(load experiments.LoadSpec, out string) int {
	fmt.Printf("running AcmeAir: %d requests, %d clients, seed %d\n",
		load.Requests, load.Clients, load.Seed)
	rows, err := experiments.RunFig6a(load)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitFindings
	}
	experiments.WriteFig6a(os.Stdout, rows)
	if out == "" {
		return exitOK
	}
	f, err := os.Create(out)
	if err == nil {
		err = experiments.WriteFig6aJSON(f, load, rows)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	return exitOK
}

func fig6b(load experiments.LoadSpec, metrics bool) int {
	row, snapshot, err := experiments.RunFig6b(load)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitFindings
	}
	experiments.WriteFig6b(os.Stdout, row)
	if metrics {
		fmt.Println()
		if err := snapshot.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitUsage
		}
	}
	return exitOK
}
