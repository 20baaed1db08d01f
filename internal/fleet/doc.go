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
//     utilization are accounted and summarized with stats.Summarize
//     (report.go), and persist as per-job CSV artifacts (csv.go).
//
// # The event core and engine modes
//
// The event loop's three sources — arrivals, resolved completions, and
// in-flight groups bounded from below — are indexed: min-heaps order
// completions and completion bounds, an idle-device heap yields the
// fastest free device in placement order, and the live queue is a
// head-indexed priority queue with binary-search insertion (heap.go,
// queue.go). One event costs O(log n) whatever the fleet size, which is
// what lets the same loop serve 4 devices × 60 jobs and 64 devices ×
// 100k jobs.
//
// One loop type (loop.go) serves every engine and shard count. A loop
// owns one device partition; Config.Shards = K > 1 deals the roster
// into K partitions whose loops run one after another behind a
// deterministic epoch router, modeling a K-way split fleet. The single
// loop owns the whole roster.
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
// solo-profile progress model, capped at MaxCheckpoint; a re-dispatch
// runs the un-preserved remainder plus an explicit restart cost
// (RestartFrac). Groups containing a latency member are never evicted.
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
