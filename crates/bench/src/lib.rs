//! # rapids-bench
//!
//! Benchmark harness regenerating the paper's Table 1 (§6).
//!
//! The [`table1`] module runs the full flow — generate → map → place →
//! time → optimize with `gsg`, `GS` and `gsg+GS` — for any subset of the
//! 19-benchmark suite.  Each design yields a [`rapids_core::BenchmarkRow`]
//! for the printed table (including the supergate coverage, `L` and
//! redundancy columns) and a [`rapids_serve::DesignQor`] for the
//! `--qor-out` / `--check` snapshot.  The `sta_kernel` binary times the
//! levelized STA kernel against the scalar reference analyzer.

pub mod table1;

pub use table1::{run_benchmark, run_suite, FlowResult};
