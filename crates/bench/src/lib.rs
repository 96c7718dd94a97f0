//! The rvhpc benchmark trajectory harness.
//!
//! [`harness`] runs the *curated* bench suite — deterministic iteration
//! counts, monotonic-clock timing, exact min/median/p99 per target — and
//! [`record`] turns a run into a versioned `rvhpc-bench/1` document
//! (`results/BENCH_<n>.json`) plus rvr-style markdown tables. That is
//! the committed benchmark trajectory `reproduce bench` appends to and
//! `obsdiff` gates in CI. The paper's tables and figures are regenerated
//! by `reproduce <slug>`, the end-to-end workloads live in `benchmark/`,
//! and the DESIGN.md §6 model ablations print from
//! `examples/model_ablations.rs`; this crate times, it does not print.

pub mod harness;
pub mod record;
