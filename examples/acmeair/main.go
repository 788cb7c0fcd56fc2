// Acmeair: boot the reproduced AcmeAir flight-booking service on the
// simulated runtime, drive it with the JMeter-substitute workload, and
// print the throughput and per-operation statistics plus the async-API
// usage profile — a miniature of the paper's §VII-B evaluation setup,
// assembled by the same harness as Fig. 6 (experiments.RunAcmeAir) with
// the metrics registry attached.
//
//	go run ./examples/acmeair
package main

import (
	"fmt"
	"sort"
	"time"

	"asyncg/internal/acmeair"
	"asyncg/internal/eventloop"
	"asyncg/internal/experiments"
	"asyncg/internal/trace"
)

func main() {
	load := experiments.LoadSpec{Requests: 1000, Clients: 16, Seed: 1, Data: acmeair.DefaultDataSpec()}
	var loop *eventloop.Loop
	var metrics *trace.Metrics
	stats, elapsed, err := experiments.RunAcmeAir(load, func(l *eventloop.Loop) {
		loop = l
		metrics = trace.NewMetrics(l)
		l.Probes().Attach(metrics)
	})
	if err != nil {
		fmt.Println("run error:", err)
		return
	}

	fmt.Printf("AcmeAir served %d requests (%d failed) in %v wall / %v virtual\n",
		stats.Completed, stats.Failed, elapsed.Round(time.Millisecond), loop.Now().Round(time.Millisecond))
	fmt.Printf("throughput: %.0f requests/second (wall clock)\n\n",
		float64(stats.Completed)/elapsed.Seconds())

	fmt.Println("operation mix:")
	ops := make([]string, 0, len(stats.ByOp))
	for op := range stats.ByOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Printf("  %-16s %5d\n", op, stats.ByOp[op])
	}

	snapshot := metrics.Snapshot()
	row := experiments.Fig6bFrom(snapshot, stats.Completed)
	fmt.Printf("\nasync-API executions per request (Fig. 6(b) measurement):\n")
	fmt.Printf("  nextTick %.2f   emitter %.2f   promise %.2f\n", row.NextTick, row.Emitter, row.Promise)

	fmt.Println("\nbusiest callback-dispatching APIs:")
	apis := make([]string, 0, len(snapshot.PerAPI))
	for api := range snapshot.PerAPI {
		apis = append(apis, api)
	}
	sort.Slice(apis, func(i, j int) bool {
		a, b := snapshot.PerAPI[apis[i]].Count, snapshot.PerAPI[apis[j]].Count
		if a != b {
			return a > b
		}
		return apis[i] < apis[j]
	})
	for i, api := range apis {
		if i == 8 {
			break
		}
		fmt.Printf("  %-28s %7d\n", api, snapshot.PerAPI[api].Count)
	}
}
