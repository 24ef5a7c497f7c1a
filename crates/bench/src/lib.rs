//! # lunule-bench
//!
//! The experiment harness: binaries that regenerate the tables and
//! figures of the paper's evaluation (see DESIGN.md's experiment index),
//! all built on the runner in this library. Binaries print the human-readable series the paper
//! plots and optionally dump JSON next to them for post-processing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod perf;
pub mod report;
pub mod runner;
pub mod scale;
pub mod sink;

pub use args::CommonArgs;
pub use perf::{run_bench, BenchResult, Protocol};
pub use report::{epoch_series, per_mds_iops, print_series, write_json, Series};
pub use runner::{default_sim, run_experiment, run_grid_jobs, ExperimentConfig};
pub use scale::{build_namespace, build_sim, ScaleSpec};
pub use sink::TelemetrySink;
