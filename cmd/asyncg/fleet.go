package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"asyncg/internal/explore"
	"asyncg/internal/fleet"
)

// runFleet implements the "asyncg fleet" subcommand: the distributed
// exploration coordinator. It shards one exploration across a set of
// asyncg serve workers, streams unified progress, and merges the
// partial results into output byte-identical to a single-process
// `asyncg explore` at the same budget. The journal directory makes a
// killed coordinator resumable with -resume.
func runFleet(args []string) int {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	var (
		workers        = fs.String("workers", "", "comma-separated serve worker base URLs (e.g. http://127.0.0.1:8321,http://127.0.0.1:8322)")
		targetSpec     = fs.String("target", "", "registry target spec: case:<id>[:fixed] or acmeair[:requests=N,clients=N,seed=N]")
		runs           = fs.Int("runs", 32, "global run budget (exhaustive: enumeration budget)")
		seed           = fs.Int64("seed", 1, "base seed for the random/delay/coverage strategies")
		strategy       = fs.String("strategy", "random", "exploration strategy: random, delay, exhaustive, coverage")
		kinds          = fs.String("kinds", "", "comma-separated choice kinds to perturb (default io-order,timer-tie,latency)")
		delayBound     = fs.Int("delay-bound", 2, "delay strategy: max non-default picks per run")
		por            = fs.Bool("por", false, "exhaustive strategy: partial-order reduction")
		shardRuns      = fs.Int("shard-runs", 8, "target shard width in runs")
		metrics        = fs.Bool("metrics", false, "aggregate per-run trace metrics into the merged result")
		chains         = fs.Bool("chains", false, "attach async causal chains to the merged warning classification (computed locally after the merge; byte-identical to single-process -chains)")
		debugStack     = fs.Bool("debug-stacks", false, "with -chains: run the coordinator's chain replays under creation-stack capture so chain hops carry Go call sites (shard schedules never capture stacks)")
		dir            = fs.String("dir", "", "journal directory (default: a fresh temp dir, removed on success, kept on failure)")
		resume         = fs.String("resume", "", "resume the journal in this directory; planning flags come from its plan.json")
		ndjsonOut      = fs.String("ndjson", "", "stream merged NDJSON exploration records to this file ('-' for stdout)")
		requestTimeout = fs.Duration("request-timeout", 10*time.Second, "per control request (submit/cancel) timeout")
		maxAttempts    = fs.Int("max-attempts", 5, "per-shard dispatch attempts across workers before the run fails")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: asyncg fleet -workers <url,url,...> -target <spec> [flags]\n")
		fmt.Fprintf(fs.Output(), "       asyncg fleet -workers <url,url,...> -resume <dir>\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "fleet: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return exitUsage
	}

	var workerURLs []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workerURLs = append(workerURLs, w)
		}
	}
	if len(workerURLs) == 0 {
		fmt.Fprintln(os.Stderr, "fleet: -workers is required")
		fs.Usage()
		return exitUsage
	}

	var plan fleet.Plan
	journalDir := *dir
	if *resume != "" {
		// A resumed exploration is defined by its journal; planning flags
		// would silently disagree with it, so their presence is an error.
		conflicts := map[string]bool{
			"target": true, "runs": true, "seed": true, "strategy": true,
			"kinds": true, "delay-bound": true, "por": true, "shard-runs": true,
			"metrics": true, "dir": true, "chains": true, "debug-stacks": true,
		}
		bad := ""
		fs.Visit(func(f *flag.Flag) {
			if conflicts[f.Name] {
				bad = f.Name
			}
		})
		if bad != "" {
			fmt.Fprintf(os.Stderr, "fleet: -%s conflicts with -resume (the journal's plan.json wins)\n", bad)
			return exitUsage
		}
		p, err := fleet.LoadPlan(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitUsage
		}
		plan = p
		journalDir = *resume
	} else {
		if *targetSpec == "" {
			fmt.Fprintln(os.Stderr, "fleet: -target is required (or -resume <dir>)")
			fs.Usage()
			return exitUsage
		}
		plan = fleet.Plan{
			Spec: explore.Spec{
				Target:      *targetSpec,
				Strategy:    *strategy,
				Seed:        *seed,
				Runs:        *runs,
				Kinds:       *kinds,
				DelayBound:  *delayBound,
				POR:         *por,
				Chains:      *chains,
				DebugStacks: *debugStack,
			},
			ShardRuns: *shardRuns,
			Metrics:   *metrics,
		}
	}
	// Bad planning flags are usage errors, refused before any journal
	// directory is made.
	if _, _, err := plan.Options(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	target, err := explore.TargetByName(plan.Target)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	if journalDir == "" {
		tmp, err := os.MkdirTemp("", "asyncg-fleet-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitUsage
		}
		journalDir = tmp
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The merged stream mirrors `asyncg explore -ndjson` byte for byte:
	// run lines in global order as shards complete in order, then the
	// classification and summary.
	sink, err := openNDJSON(*ndjsonOut, target.Name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	res, stats, runErr := fleet.Run(ctx, fleet.Config{
		Plan:           plan,
		Workers:        workerURLs,
		Dir:            journalDir,
		Resume:         *resume != "",
		RequestTimeout: *requestTimeout,
		MaxAttempts:    *maxAttempts,
		Progress:       sink.progress(),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err := sink.close(res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}

	if runErr != nil {
		fmt.Fprintf(os.Stderr, "fleet: stopped after %d run(s): %v\n", runCount(res), runErr)
		fmt.Fprintf(os.Stderr, "fleet: journal kept in %s — resume with: asyncg fleet -workers %s -resume %s\n",
			journalDir, *workers, journalDir)
		return exitFindings
	}

	if stats != nil {
		fmt.Fprintf(os.Stderr, "fleet: %d shard(s): %d dispatched, %d resumed from journal, %d retrie(s) across %d worker(s)\n",
			stats.Shards, stats.Dispatched, stats.Resumed, stats.Retries, len(workerURLs))
	}
	if note := res.BudgetNote(); note != "" {
		fmt.Fprintf(os.Stderr, "fleet: %s\n", note)
	}
	if *ndjsonOut != "-" {
		if err := res.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitUsage
		}
	}
	// Success: a temp journal has served its purpose. Explicit -dir (or
	// -resume) journals are the user's to keep.
	if *dir == "" && *resume == "" {
		os.RemoveAll(journalDir)
	}
	return exitOK
}

func runCount(res *explore.Result) int {
	if res == nil {
		return 0
	}
	return len(res.Runs)
}
