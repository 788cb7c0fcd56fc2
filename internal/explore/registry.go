package explore

import (
	"fmt"
	"strconv"
	"strings"

	"asyncg/internal/casestudy"
)

// This file is the target registry: one name-to-Target lookup shared by
// every front end (the asyncg explore CLI, the analysis server's
// POST /v1/jobs, GET /v1/targets) instead of each of them re-parsing
// flags into Target constructors.

// TargetInfo describes one registry entry for listings (GET /v1/targets,
// future CLI discovery).
type TargetInfo struct {
	// Name is the spec string TargetByName accepts.
	Name string `json:"name"`
	// Title is a human-readable summary.
	Title string `json:"title"`
	// Category is the paper's Table I classification (case studies only).
	Category string `json:"category,omitempty"`
}

// Targets lists every resolvable target: the AcmeAir workload and each
// case study (with a :fixed variant when the paper shows a fix).
func Targets() []TargetInfo {
	out := []TargetInfo{{
		Name:  "acmeair",
		Title: "AcmeAir benchmark server under the workload driver (acmeair:requests=N,clients=N,seed=N)",
	}}
	for _, c := range casestudy.All() {
		out = append(out, TargetInfo{Name: "case:" + c.ID, Title: c.Title, Category: c.Category})
		if c.Fixed != nil {
			out = append(out, TargetInfo{Name: "case:" + c.ID + ":fixed", Title: c.Title + " (fixed)", Category: c.Category})
		}
	}
	return out
}

// TargetByName resolves a target spec string:
//
//	case:<id>          case study, buggy version (bare <id> also works)
//	case:<id>:fixed    case study, fixed version
//	acmeair            AcmeAir workload with the default load
//	acmeair:k=v,...    parameterized (requests=N, clients=N, seed=N)
//
// Unknown names and malformed parameters are configuration errors.
func TargetByName(spec string) (Target, error) {
	switch {
	case spec == "":
		return Target{}, fmt.Errorf("explore: empty target spec")
	case spec == "acmeair":
		return AcmeAirTarget(50, 4, 1), nil
	case strings.HasPrefix(spec, "acmeair:"):
		return acmeAirFromSpec(strings.TrimPrefix(spec, "acmeair:"))
	case strings.HasPrefix(spec, "case:"):
		rest := strings.TrimPrefix(spec, "case:")
		if id, ok := strings.CutSuffix(rest, ":fixed"); ok {
			return CaseTargetByID(id, true)
		}
		return CaseTargetByID(rest, false)
	default:
		// Bare case id, the common CLI shorthand.
		return CaseTargetByID(spec, false)
	}
}

// maxAcmeAirClients bounds an acmeair spec's clients. The workload
// driver issues one login per client within a single tick, and the loop
// polls its interrupt only between ticks, so a spec from a job body or
// a fleet plan that named millions could not be cancelled. Fig. 6 runs
// 16.
const maxAcmeAirClients = 1024

// acmeAirFromSpec parses the "requests=N,clients=N,seed=N" parameter
// list of an acmeair spec; unset keys keep their defaults.
func acmeAirFromSpec(params string) (Target, error) {
	requests, clients, seed := 50, 4, int64(1)
	for _, part := range strings.Split(params, ",") {
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Target{}, fmt.Errorf("explore: acmeair parameter %q is not key=value", part)
		}
		var err error
		switch key {
		case "requests":
			requests, err = strconv.Atoi(val)
		case "clients":
			clients, err = strconv.Atoi(val)
		case "seed":
			seed, err = strconv.ParseInt(val, 10, 64)
		default:
			return Target{}, fmt.Errorf("explore: unknown acmeair parameter %q (requests, clients, seed)", key)
		}
		if err != nil {
			return Target{}, fmt.Errorf("explore: acmeair parameter %s=%q: %v", key, val, err)
		}
	}
	if requests <= 0 || clients <= 0 || clients > maxAcmeAirClients {
		return Target{}, fmt.Errorf("explore: acmeair requires positive requests and 1..%d clients (got %d, %d)",
			maxAcmeAirClients, requests, clients)
	}
	return AcmeAirTarget(requests, clients, seed), nil
}
