// Package explore is the schedule-space exploration engine: it runs a
// program under N systematically-varied schedules — every unspecified
// ordering in the simulated Node.js runtime (I/O poll completion order,
// same-deadline timer ties, I/O latency jitter, and opt-in listener and
// result-set orders) is reduced to a discrete choice point — and reports
// which detector warnings are schedule-dependent.
//
// Each run is summarized by a replayable Schedule token and a canonical
// Async-Graph fingerprint; aggregation classifies each warning as
// always, sometimes (with witness and counter-witness tokens), or never.
// The approach follows the systematic-testing framing of Ganty &
// Majumdar's "Algorithmic Verification of Asynchronous Programs": our
// deterministic event loop makes every schedule reproducible, so
// exploring the schedule space is just enumerating pick vectors.
//
// # Debug options: one semantics table
//
// Three options spread debugging detail across the two API layers —
// [asyncg.WithDebugStacks] on a single session, and [WithDebugStacks]
// and [WithChains] on an exploration. This table is the canonical
// statement of their semantics; each option's doc comment refers back
// here. All three are observing probes: none perturbs scheduling,
// fingerprints, or warning classification, so enabling them never
// changes which bugs are found or a Result's canonical identity.
//
//	Option                    Layer        Applies to                       Cost                              Output surface
//	[asyncg.WithDebugStacks]  session      the one Run of that Session      stack capture + symbolization     Warning provenance frames
//	                                                                        per tracked API call              (asyncg.Report.Warnings)
//	[WithChains]              exploration  aggregation only                 one extra replay per distinct     WarningStat.Chain with
//	                                                                        witness token                     location-labelled hops
//	[WithDebugStacks]         exploration  the witness replays of           the session cost on each of       frames on every chain hop
//	                                       [WithChains] only                those replays                     (WarningStat.Chain)
//
// The composition rules fall out of the table: [WithChains] alone
// yields chains whose hops carry source locations; adding
// [WithDebugStacks] runs those replays under [asyncg.WithDebugStacks],
// upgrading the hops with the captured Go frames. The explored
// schedules never capture stacks — frames surface nowhere but on
// chains — so [WithDebugStacks] without [WithChains] does nothing, and
// a Target never needs to thread the session option itself. Chains are
// a deterministic function of (target, witness token), which keeps
// Results byte-identical for any worker count and across fleet merges.
package explore
