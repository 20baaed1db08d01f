// Package gpu assembles the full simulated device: SIMT cores
// (internal/smcore), the interconnect (internal/icnt), L2 banks and
// memory controllers (internal/cache, internal/dram), plus the
// machinery for spatial multi-application execution — disjoint SM sets
// per application, a per-application thread-block dispatcher (the "work
// distributor" of Figure 2.2), and run-time SM reallocation using the
// drain-then-transfer protocol of Section 3.2.4.
//
// # Stepping
//
// Device.Step advances every component by one cycle, and Device.Run
// steps until all launched applications complete; no cycle is skipped.
// Components that cannot act keep their own steps cheap. An SM whose
// warps all wait on later cycles returns from Tick at once, through its
// schedulers' scan watermarks. A memory partition returns from its tick
// at once until the next event of its response and stash queues or of
// its DRAM controller (dram.Controller.NextEvent), unless the
// interconnect delivers new work; the controller catches up its
// bus-busy accounting on its next real tick.
//
// # Multi-application execution
//
// Device.Launch places a kernel on an explicit SM set; applications on
// disjoint sets share the memory system but never an SM, reproducing
// the paper's spatial partitioning. Launch is atomic: if any SM in the
// set is invalid or busy, no assignment is retained. Device.ReassignSM
// moves one SM between running applications with the
// drain-then-transfer protocol; Device.AppStats reports
// per-application counters (instructions, cycles, stalls) used by the
// profiler and scheduler above.
package gpu
