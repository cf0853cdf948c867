// Package repro reproduces "Implementation and Evaluation of Prefetching
// in the Intel Paragon Parallel File System" (Arunachalam, Choudhary,
// Rullman; IPPS 1996) as a deterministic discrete-event simulation.
//
// Start with examples/quickstart, which runs a workload.Spec on a
// machine.DefaultConfig() through workload.Run; cmd/experiments to
// regenerate the paper's tables and figures; and DESIGN.md for the system
// inventory. The benchmarks in this package (bench_test.go) time one
// regeneration of each table and figure:
//
//	go test -bench=. -benchmem
package repro
