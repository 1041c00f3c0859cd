//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (see `DESIGN.md` §5 for the experiment index).
//!
//! Each table/figure is a binary (`cargo run --release -p ant-bench --bin
//! table3`); this library holds the shared runner: benchmark loading,
//! OVS pre-processing, timed solver sweeps, and plain-text table/series
//! rendering.
//!
//! End-to-end performance (setup time, per-request latency, throughput and
//! peak memory on fixed workloads) is measured by the separate `antbench`
//! crate, declared in `BENCHMARK.json`; these binaries regenerate the
//! paper's tables, not regression numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod render;
pub mod runner;
pub mod trace;

pub use runner::{run_suite, BenchResult, SuiteResults};
