//! # lunule-workloads
//!
//! Deterministic generators for the five metadata-heavy workloads the paper
//! evaluates (Table 1) plus their four-way mixture:
//!
//! | kind | pattern | locality signature |
//! |---|---|---|
//! | CNN | full-dataset scan + record create | spatial (never re-visits) |
//! | NLP | small-file corpus scan | spatial, flat huge dirs |
//! | Web | trace replay, Zipf popularity | temporal |
//! | Zipf | private dirs, 80/20 random reads | temporal, per-client |
//! | MD  | continuous creates | write-only, growing dirs |
//!
//! The paper runs these against real datasets (ImageNet, a news corpus, an
//! Apache access log, Filebench, mdtest); this crate substitutes synthetic
//! datasets with the same published shapes and the same locality
//! signatures, scaled by a `scale` factor — see DESIGN.md for the
//! substitution rationale.

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
        clippy::float_cmp
    )
)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod cnn;
pub mod mdtest;
pub mod mixed;
pub mod nlp;
pub mod spec;
pub mod streams;
pub mod trace;
pub mod web;
pub mod zipf;
pub mod zipf_read;

pub use cnn::CnnWorkload;
pub use mdtest::{MdtestFullStream, MdtestFullWorkload, MdtestWorkload};
pub use mixed::MixedWorkload;
pub use nlp::NlpWorkload;
pub use spec::{WorkloadKind, WorkloadSpec};
pub use streams::{client_seed, CreateStream, HotSetStream, ReplayStream, ScanStream};
pub use trace::{dump_trace, load_trace, trace_streams, LoadedTrace};
pub use web::WebWorkload;
pub use zipf::{HotSetSampler, ZipfSampler};
pub use zipf_read::ZipfReadWorkload;
