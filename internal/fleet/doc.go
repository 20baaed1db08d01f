// Package fleet is the online layer of the reproduction: jobs arrive
// over simulated time to a fleet of N simulated GPUs, and the paper's
// classification / interference / matching machinery is applied
// incrementally to the live queue instead of to a static batch.
//
// The paper's evaluation (and internal/sched) is offline: the whole
// queue is known up front, groups are formed once and run to
// completion. A production deployment sees neither — applications
// arrive continuously, and a device that frees up must choose its next
// co-run group from whatever is waiting *now*. Package fleet models
// exactly that as a deterministic discrete-event simulation:
//
//   - arrival processes (Poisson, bursty on-off, fixed trace) generate
//     a deterministic stream of jobs from a seed, each optionally
//     tagged with a service-level class and deadline (arrivals.go);
//   - whenever a device frees up, an online dispatcher forms the next
//     co-run group from the current queue — greedily when the queue is
//     shallow (latency matters more than packing) and with a windowed
//     ILP over the queue prefix when it is deep. The window adapts to
//     queue depth and class mix, and both scorers can weight pattern
//     efficiency by member wait time (dispatch.go);
//   - group executions run concurrently on a worker pool, one in-flight
//     group per device, through sched.Scheduler.RunGroup — the same
//     single-group path the offline scheduler uses (loop.go);
//   - per-job latency (wait, turnaround, deadline slack) and per-device
//     utilization are accounted, and Result.Stats aggregates the job
//     records in one pass into a RunStats that Summary, the sweep
//     metrics and the experiment tables all read, summarized from
//     radix-sorted integer cycles, 32-bit whenever every sample fits,
//     with stats.SortUnsigned and stats.SummarizeSorted (report.go); the
//     records persist as per-job CSV artifacts (csv.go).
//
// # The event core and engine modes
//
// The event loop's sources — arrivals, control events, resolved
// completions, and in-flight groups bounded from below — are indexed:
// one keyed min-heap type orders completions, completion bounds and the
// control events that can land at any cycle (submissions, retries,
// scale ticks, provisions) and yields the fastest free device in
// placement order; control events pushed in firing order (abandon
// timers under the one Timeout, the chaos schedule) wait in two FIFOs
// beside that heap, all three merged by one (cycle, sequence) key; and the live queue is a head-indexed priority queue
// with binary-search insertion (heap.go, control.go, queue.go). One
// event costs O(log n) whatever the fleet size, which is what lets the
// same loop serve 4 devices × 60 jobs and 64 devices × 100k jobs. Every
// run is one event loop (loop.go) over the whole roster, under every
// engine.
// Each job is one 96-byte JobRecord: resolve allocates the records as
// one arena (sim.go), the loop keeps its per-job state in their
// unexported fields, and Run finalizes them in place and returns the
// arena as Result.Jobs.
//
// Config.Engine selects how a dispatched group's completion is learned
// (engine.go). Cycle simulates every group cycle-accurately — the
// reference. Modeled computes completions analytically from solo
// profiles and the interference matrix (each member's solo duration
// times its match.MemberSlowdown under the group's class pattern) with
// zero simulations: the model the dispatcher already trusts for lower
// bounds, preemption tests and checkpoint accounting, promoted to
// authoritative. Hybrid simulates the first HybridWarm occurrences of
// each (device type, composition), calibrates the model against them,
// and serves the rest from the calibrated model, reporting the fidelity
// delta in Result.Summary.
//
// # Service-level classes and preemption
//
// Jobs come in two SLO classes (slo.go): batch work that optimizes
// throughput, and latency work that carries a relative deadline. With
// SLOConfig.Enabled, latency jobs queue ahead of batch work and seed
// group formation first. With SLOConfig.Preempt, the dispatcher may
// additionally evict a running all-batch group when a waiting latency
// job would miss its deadline even if dispatched the instant the next
// device is predicted to free. The decision is deliberately asymmetric:
// "will it miss?" assumes the least favorable co-partner from the
// interference matrix (missing a needed rescue forfeits the deadline),
// while "can eviction save it?" assumes the solo optimum (a possible
// rescue is worth one batch group's progress). Evicted jobs re-enter
// the queue with their completed fraction checkpointed from the
// solo-profile progress model, capped at 90% of the job; a re-dispatch
// runs the un-preserved remainder plus an explicit restart cost of a
// tenth of its solo duration. Groups containing a latency member are
// never evicted.
//
// # Heterogeneous rosters
//
// The fleet may be heterogeneous: the roster (Config.Devices) is a list
// of DeviceSpec entries, each contributing Count devices of one device
// type backed by its own calibrated core.Pipeline. Classification,
// interference matrices and solo profiles are all per device type —
// the same application can fall in different classes on different
// generations — so the dispatcher is placement-aware: when a device
// frees, group formation scores candidate groups with that device
// type's matrix, and the event loop's completion lower bounds use that
// device's peak issue rate and solo profiles. Devices are offered work
// fastest-first (descending peak IPC, ties by device index), so heavy
// backlogs drain through the big devices first.
//
// Everything is a pure function of the seed and configuration: two runs
// with the same inputs produce byte-identical summaries and eviction
// traces, regardless of how the host schedules the worker goroutines.
package fleet
