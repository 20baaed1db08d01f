// Package repro reproduces "Throughput Optimization and Resource
// Allocation on GPUs under Multi-Application Execution" (Punyala, 2017;
// DATE 2018) as a production-quality Go library: a cycle-level GPU
// simulator substrate, a Rodinia-like synthetic workload suite, and the
// paper's classification / interference / ILP-matching / SM-reallocation
// methodology.
//
// The root package holds only documentation and the benchmark harness
// (bench_test.go), which regenerates every table and figure of the
// paper's evaluation; the implementation lives under internal/ and the
// public entry point is internal/core. See README.md ("Quickstart",
// "Package map", "Performance") and ARCHITECTURE.md ("Layer map", "The
// dataflow").
package repro
