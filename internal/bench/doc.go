// Package bench is the experiment registry behind fdbench: it regenerates
// every table and figure of the paper's evaluation (§6), the running-example
// tables (§3–§4), Theorem 1's comparison and the CB-vs-EB and
// discover-vs-repair studies (§5, §2), and four ablations of §4.4's design
// choices (counting strategy, parallel candidate evaluation, early stop,
// balanced objective). Each experiment is one Run(cfg, w) that renders the
// rows or series the paper prints, next to the paper's values where they are
// data-independent; EXPERIMENTS.md records where and why they differ.
//
// Experiments accept a Config so the same code serves three consumers: the
// root bench_test.go benchmarks (laptop-scale defaults), the fdbench CLI
// (flag-controlled scale up to paper size) and tests (tiny scale).
//
// The package measures no performance of this repository's own layers; that
// is the job of benchmark/ (see benchmark/README.md), the one harness with
// per-layer timers and an exact-recount oracle.
package bench
