package experiments

import "asyncg/internal/loc"

// locHere captures the caller's location for benchmark-internal
// registrations (the label content is irrelevant for measurements).
func locHere() loc.Loc { return loc.Caller() }
