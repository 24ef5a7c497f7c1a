//! # lunule-sim
//!
//! A deterministic, discrete-time simulator of a CephFS-style MDS cluster:
//! capacity-constrained metadata servers, closed-loop clients with authority
//! caching, bandwidth-limited subtree migration with commit-window freezes,
//! and an optional OSD data path for end-to-end runs.
//!
//! One tick is one simulated second. Every `epoch_secs` ticks the configured
//! [`lunule_core::Balancer`] receives the cluster's load snapshot and may
//! return a migration plan, which the [`migration::Migrator`] then executes
//! with realistic lag and resource costs. The per-epoch series a run records
//! ([`results::RunResult`]) are exactly the series the paper's figures plot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )
)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod client;
pub mod cluster;
pub mod cohort;
mod cohort_engine;
pub mod config;
mod fault_handling;
pub mod latency;
pub mod mds;
pub mod migration;
mod persist;
pub mod profile;
pub mod request;
pub mod results;
mod tick_ledger;

pub use client::Client;
pub use cluster::Simulation;
pub use cohort::{Cohort, CohortSet, Interval};
pub use config::{DataPathConfig, SimConfig};
pub use latency::LatencyHistogram;
// Fault-injection types, re-exported so simulator users need not depend on
// `lunule-faults` directly to build a `SimConfig::faults` schedule.
pub use lunule_faults::{seeded, ChaosProfile, FaultEvent, FaultKind, FaultPlan, FaultSchedule};
pub use mds::MdsState;
pub use migration::{MigrationCounters, MigrationJob, Migrator};
pub use persist::snapshot_stream_count;
pub use profile::Profile;
pub use request::{FixedStream, MetaOp, OpStream};
pub use results::{EpochRecord, RunResult};
