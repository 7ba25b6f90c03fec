// Package repro is a Go reproduction of "When Is Parallelism Fearless
// and Zero-Cost with Rust?" (SPAA 2024): the RPB benchmark suite, a
// Rayon-analog work-stealing parallel-patterns library with the paper's
// checked indirect-access adapters, the MultiQueue scheduler, and a
// harness regenerating every table and figure of the evaluation.
//
// See README.md for the layout, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured
// results. The root package hosts the end-to-end CLI tests and the
// beyond-LLC graph benchmarks; the implementation lives under internal/
// and the repository's benchmark under benchmark/.
package repro
