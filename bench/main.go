// Command bench measures asyncg end to end and layer by layer on four
// workloads: three closed-loop explorations and the analysis service
// under an open loop. See README.md for the workloads, the metrics and
// how to read them.
//
//	go run .                      every workload, each in a child process
//	go run . -workload case-random -seed 3 -seconds 20 -trace 0
//	go run . -trace spans.ndjson  traced per-layer pass, spans written out
//	go run . -repeat 10           spread of every end-to-end metric
//
// The last line of a single-workload run is a JSON object with the keys
// correct, attempted, failed and metrics; the exit status is non-zero
// when a correctness check failed.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	out      string
	repeat   int
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: every workload, each in its own child process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase in seconds; a traced pass splits it into an untraced and a traced half")
	fs.StringVar(&o.trace, "trace", "0", "0: end-to-end pass; 1: traced per-layer pass; any other value: traced pass that also writes its spans to that file as NDJSON")
	fs.StringVar(&o.out, "out", "", "also write the results to this file as JSON")
	fs.IntVar(&o.repeat, "repeat", 0, "run every workload this many times, with seeds seed, seed+1, ..., alternating the workload order, and print the median and quartiles of each end-to-end metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || o.repeat < 0 {
		fmt.Fprintln(stderr, "bench: takes flags only, with -seconds > 0 and -repeat >= 0")
		return 2
	}
	if o.workload != "" {
		if _, ok := workloadByName(o.workload); !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (%s)\n", o.workload, strings.Join(workloadNames(), ", "))
			return 2
		}
	}
	switch {
	case o.repeat > 0:
		return repeatAll(o, stdout, stderr)
	case o.workload == "":
		return runAll(o, stdout, stderr)
	default:
		return runOne(o, stdout, stderr)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runOne runs one workload in this process.
func runOne(o options, stdout, stderr io.Writer) int {
	w, _ := workloadByName(o.workload)
	cfg := runConfig{
		seed:    o.seed,
		phase:   time.Duration(o.seconds * float64(time.Second)),
		traced:  o.trace != "0",
		setups:  9,
		ablateN: 256,
	}
	r, tr, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	r.Workload, r.Seed, r.Traced = w.name, o.seed, cfg.traced
	r.finish()
	r.writeTable(stdout)
	if tr != nil && o.trace != "1" {
		if err := writeFile(o.trace, func(f io.Writer) error { return tr.writeSpans(f, w.name) }); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if o.out != "" {
		if err := writeFile(o.out, func(f io.Writer) error { return writeReports(f, []report{*r}) }); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := r.writeResult(stdout); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !r.Correct {
		return 1
	}
	return 0
}

func writeReports(w io.Writer, reports []report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

// writeFile creates path and fills it through fill.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// child runs one workload in a child process (this binary re-executed),
// so that its peak RSS is its own. The child's standard output goes to
// stdout; its exit status is returned.
func child(o options, stdout, stderr io.Writer) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{
		"-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", o.trace,
	}
	if o.out != "" {
		args = append(args, "-out", o.out)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), nil
	}
	return 0, err
}

// runAll runs every workload in its own child process and gathers their
// spans and JSON results into the requested files.
func runAll(o options, stdout, stderr io.Writer) int {
	status := 0
	var spans []byte
	var reports []report
	for _, name := range workloadNames() {
		c := o
		c.workload = name
		if o.trace != "0" && o.trace != "1" {
			c.trace = o.trace + "." + name
		}
		if o.out != "" {
			c.out = o.out + "." + name
		}
		code, err := child(c, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if code != 0 {
			status = 1
		}
		if c.trace != o.trace {
			b, err := readPart(c.trace)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			spans = append(spans, b...)
		}
		if c.out != "" {
			b, err := readPart(c.out)
			var part []report
			if err == nil {
				err = json.Unmarshal(b, &part)
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			reports = append(reports, part...)
		}
	}
	if o.trace != "0" && o.trace != "1" {
		if err := os.WriteFile(o.trace, spans, 0o644); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if o.out != "" {
		if err := writeFile(o.out, func(f io.Writer) error { return writeReports(f, reports) }); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return status
}

// readPart reads and removes a child's output file; a child that failed
// before writing it leaves nothing to gather.
func readPart(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return b, os.Remove(path)
}

// resultLine is the parsed last line of a child's output.
type resultLine struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// repeatAll runs every workload o.repeat times with seeds o.seed,
// o.seed+1, ..., reversing the workload order on every other round so
// that no workload always runs first, and prints the quartiles of each
// end-to-end metric. The spread is (Q3 - Q1) / median, the quantity
// BENCHMARK.json's bounds must cover.
func repeatAll(o options, stdout, stderr io.Writer) int {
	values := make(map[string]map[string][]float64)
	status := 0
	for round := 0; round < o.repeat; round++ {
		names := workloadNames()
		if round%2 == 1 {
			slices.Reverse(names)
		}
		for _, name := range names {
			c := o
			c.workload, c.seed, c.trace, c.out = name, o.seed+int64(round), "0", ""
			var buf bytes.Buffer
			code, err := child(c, &buf, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || code != 0 || !res.Correct {
				fmt.Fprintf(stderr, "bench: %s seed %d failed (exit %d):\n%s", name, c.seed, code, buf.String())
				status = 1
				continue
			}
			if values[name] == nil {
				values[name] = make(map[string][]float64)
			}
			for metric, v := range res.Metrics {
				values[name][metric] = append(values[name][metric], v.Value)
			}
			fmt.Fprintf(stderr, "bench: round %d/%d %s seed %d:", round+1, o.repeat, name, c.seed)
			for _, m := range endToEnd {
				fmt.Fprintf(stderr, " %s=%.4g", m.name, res.Metrics[m.name].Value)
			}
			fmt.Fprintln(stderr)
		}
	}
	fmt.Fprintf(stdout, "%-18s %-16s %3s %14s %14s %14s %8s\n", "workload", "metric", "n", "q1", "median", "q3", "spread")
	for _, name := range workloadNames() {
		for _, m := range endToEnd {
			xs := values[name][m.name]
			q1, med, q3 := quartiles(xs)
			spread := ratio(q3-q1, med)
			flag := ""
			if spread > 0.10 {
				flag = "  over 10%"
			}
			fmt.Fprintf(stdout, "%-18s %-16s %3d %14.6g %14.6g %14.6g %7.2f%%%s\n", name, m.name, len(xs), q1, med, q3, 100*spread, flag)
		}
	}
	return status
}
