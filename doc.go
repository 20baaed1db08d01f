// Package repro reproduces "Throughput Optimization and Resource
// Allocation on GPUs under Multi-Application Execution" (Punyala, 2017;
// DATE 2018) as a production-quality Go library: a cycle-level GPU
// simulator substrate, a Rodinia-like synthetic workload suite, and the
// paper's classification / interference / ILP-matching / SM-reallocation
// methodology.
//
// The root package holds only documentation, three benchmark rungs
// (bench_test.go) and the shape tests (shapes_test.go) that assert the
// paper evaluation's shapes; cmd/experiments regenerates every table
// and figure. The implementation lives under internal/ and the public
// entry point is internal/core. See README.md ("Quickstart",
// "Package map", "Performance") and ARCHITECTURE.md ("Layer map", "The
// dataflow").
package repro
