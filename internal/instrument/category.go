// Package instrument classifies async APIs into the paper's categories —
// the per-API "templates" of Algorithm 2 (which argument is the callback,
// where it is scheduled, and whether it fires once are carried by the
// probe protocol itself). The Async Graph builder, the race detector and
// the Fig. 6(b) tally over trace.Metrics' per-API counts all share it.
package instrument

import "strings"

// Category groups async APIs the way the paper's evaluation does.
type Category int

// API categories.
const (
	CatOther      Category = iota
	CatScheduling          // process.nextTick, timers, immediates
	CatEmitter             // EventEmitter APIs
	CatPromise             // promises and async/await
	CatIO                  // simulated network / fs APIs
)

// String names the category for diagnostics and trace output.
func (c Category) String() string {
	switch c {
	case CatScheduling:
		return "scheduling"
	case CatEmitter:
		return "emitter"
	case CatPromise:
		return "promise"
	case CatIO:
		return "io"
	default:
		return "other"
	}
}

// Categorize maps an API name from the probe protocol to its category.
func Categorize(api string) Category {
	switch api {
	case "process.nextTick", "queueMicrotask",
		"setTimeout", "setInterval", "setImmediate",
		"clearTimeout", "clearInterval", "clearImmediate":
		return CatScheduling
	case "await", "async function":
		return CatPromise
	}
	switch {
	case strings.HasPrefix(api, "promise.") || strings.HasPrefix(api, "Promise."):
		return CatPromise
	case strings.HasPrefix(api, "emitter.") || api == "new EventEmitter":
		return CatEmitter
	case strings.HasPrefix(api, "net.") || strings.HasPrefix(api, "http.") ||
		strings.HasPrefix(api, "fs.") || strings.HasPrefix(api, "socket.") ||
		strings.HasPrefix(api, "server.") || strings.HasPrefix(api, "db."):
		return CatIO
	default:
		return CatOther
	}
}

// IsNextTick reports whether the API is process.nextTick, which the
// paper's Fig. 6(b) counts separately from other scheduling APIs.
func IsNextTick(api string) bool { return api == "process.nextTick" }
