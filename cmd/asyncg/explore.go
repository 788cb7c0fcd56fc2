package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"asyncg"
	"asyncg/internal/explore"
	"asyncg/internal/provenance"
	"asyncg/internal/trace"
)

// runExplore implements the "asyncg explore" subcommand: schedule-space
// exploration of a registry target (a case study or the AcmeAir
// workload), classification of every warning as always/sometimes/never,
// and replay of recorded schedule tokens. It returns the process exit
// code; Ctrl-C / SIGTERM cancel the exploration gracefully, flushing
// whatever NDJSON was produced.
func runExplore(args []string) int {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	var (
		targetSpec = fs.String("target", "", "registry target spec: case:<id>[:fixed] or acmeair[:requests=N,clients=N,seed=N] (alternative to -case/-acmeair)")
		caseID     = fs.String("case", "", "case id to explore (see asyncg -list)")
		fixed      = fs.Bool("fixed", false, "explore the fixed version")
		acme       = fs.Bool("acmeair", false, "explore the AcmeAir workload instead of a case")
		requests   = fs.Int("requests", 50, "AcmeAir: total requests")
		clients    = fs.Int("clients", 4, "AcmeAir: concurrent clients")
		runs       = fs.Int("runs", 32, "number of schedules to execute; with -strategy exhaustive this is a budget — the run stops early when the space is exhausted and warns either way when the enumerated space and the budget disagree")
		workers    = fs.Int("workers", 0, "schedules executed concurrently (0 = GOMAXPROCS, 1 = sequential); results are identical for any worker count")
		seed       = fs.Int64("seed", 1, "base seed of the random, delay and coverage walks (run i uses seed+i); with -acmeair also the workload seed (acmeair:...,seed=N)")
		strategy   = fs.String("strategy", "random", "exploration strategy: random, delay, exhaustive, coverage")
		kinds      = fs.String("kinds", "", "comma-separated choice kinds to perturb (default io-order,timer-tie,latency; also listener-order, data-order)")
		delayBound = fs.Int("delay-bound", 2, "delay strategy: max non-default picks per run")
		por        = fs.Bool("por", false, "exhaustive strategy: prune schedule branches proven equivalent by partial-order reduction")
		minNew     = fs.Int("min-new-graphs", 0, "exit 1 unless at least this many distinct async-graph fingerprints were discovered (CI smoke)")
		chains     = fs.Bool("chains", false, "attach async causal chains: each classified warning carries its async stack trace (walked on a replay of its witness schedule) in text and NDJSON output; with -replay, print each warning's chain")
		debugStack = fs.Bool("debug-stacks", false, "with -chains (or -replay): capture Go creation call stacks at every promise/emitter creation, trigger, and registration during the witness replays, so chain hops show where each node originated; explored schedules never capture stacks")
		replay     = fs.String("replay", "", "replay one schedule token instead of exploring")
		ndjsonOut  = fs.String("ndjson", "", "stream NDJSON exploration records to this file ('-' for stdout); run lines are flushed as they complete")
		traceOut   = fs.String("trace", "", "with -replay: write an event trace of the replayed run")
		traceFmt   = fs.String("trace-format", "ndjson", "trace serialization: ndjson or chrome")
		expectSome = fs.Bool("expect-sometimes", false, "exit 1 unless a sometimes-classified warning with witness and counter-witness was found (CI smoke)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: asyncg explore -case <id> [flags]\n")
		fmt.Fprintf(fs.Output(), "       asyncg explore -target case:<id>[:fixed] [flags]\n")
		fmt.Fprintf(fs.Output(), "       asyncg explore -case <id> -replay <token> [-trace t.json]\n")
		fmt.Fprintf(fs.Output(), "       asyncg explore -acmeair [-requests N -clients N] [flags]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	// All front ends resolve targets through the shared registry; the
	// legacy flags just assemble a spec string.
	spec := *targetSpec
	switch {
	case spec != "":
	case *acme:
		spec = fmt.Sprintf("acmeair:requests=%d,clients=%d,seed=%d", *requests, *clients, *seed)
	case *caseID != "":
		spec = "case:" + *caseID
		if *fixed {
			spec += ":fixed"
		}
	default:
		fs.Usage()
		return exitUsage
	}
	target, err := explore.TargetByName(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}

	if *replay != "" {
		return replaySchedule(target, *replay, *traceOut, *traceFmt, *chains, *debugStack)
	}

	_, opts, err := explore.Spec{
		Target:      spec,
		Strategy:    *strategy,
		Seed:        *seed,
		Runs:        *runs,
		Kinds:       *kinds,
		DelayBound:  *delayBound,
		POR:         *por,
		Chains:      *chains,
		DebugStacks: *debugStack,
	}.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	sink, err := openNDJSON(*ndjsonOut, target.Name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, runErr := explore.Run(ctx, target, append(opts, explore.WithWorkers(*workers), explore.WithProgress(sink.progress()))...)
	if note := res.BudgetNote(); note != "" {
		fmt.Fprintf(os.Stderr, "explore: %s\n", note)
	}
	if err := sink.close(res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	if *ndjsonOut != "" && *ndjsonOut != "-" {
		fmt.Printf("wrote %s\n", *ndjsonOut)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "explore: cancelled after %d run(s): %v\n", len(res.Runs), runErr)
		return exitFindings
	}
	if *ndjsonOut != "-" {
		if err := res.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitUsage
		}
	}
	if *expectSome && len(res.Sometimes()) == 0 {
		fmt.Fprintf(os.Stderr, "explore: no schedule-dependent (sometimes) warning found in %d runs\n", len(res.Runs))
		return exitFindings
	}
	if *minNew > 0 && res.NewGraphs < *minNew {
		fmt.Fprintf(os.Stderr, "explore: discovered %d distinct async-graph fingerprint(s) in %d runs, want at least %d\n",
			res.NewGraphs, len(res.Runs), *minNew)
		return exitFindings
	}
	return exitOK
}

// replaySchedule re-executes one recorded schedule, optionally with the
// trace exporter attached — a witness token from an exploration becomes
// a fully-observable run. With chains each warning prints its async
// stack trace; with debugStacks the hops carry creation call sites.
func replaySchedule(target explore.Target, token, traceOut, traceFmt string, chains, debugStacks bool) int {
	format, err := trace.ParseFormat(traceFmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	var extra []asyncg.Option
	var traceFile *os.File
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return exitUsage
		}
		traceFile = f
		extra = append(extra, asyncg.WithTrace(f, format))
	}
	if debugStacks {
		extra = append(extra, asyncg.WithDebugStacks())
	}
	rr, report, err := explore.Replay(target, token, extra...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	if traceFile != nil {
		if cerr := traceFile.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, cerr)
			return exitUsage
		}
		fmt.Printf("wrote %s\n", traceOut)
	}
	fmt.Printf("replayed %s under %s\n", target.Name, token)
	fmt.Printf("fingerprint: %s  ticks: %d\n", rr.Fingerprint, rr.Ticks)
	if rr.Err != "" {
		fmt.Printf("run stopped: %s (expected for starvation bugs)\n", rr.Err)
	}
	if len(rr.Warnings) == 0 {
		fmt.Println("no warnings under this schedule")
	}
	for _, w := range report.Warnings {
		fmt.Printf("⚡ %s\n", w)
		if chains && len(w.Chain) > 0 {
			fmt.Printf("   replay token: %s\n", w.ReplayToken)
			fmt.Printf("   async stack trace:\n")
			provenance.Render(os.Stdout, w.Chain, "     ")
		}
	}
	return exitOK
}
