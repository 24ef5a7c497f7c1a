//! Dependency-free support utilities for the Lunule workspace.
//!
//! The workspace builds fully offline, so the cross-cutting services that
//! would normally come from external crates live here instead:
//!
//! * [`rng`] — a small deterministic pseudo-random number generator used by
//!   the stochastic workload generators and the property-test harness.
//! * [`json`] — a minimal JSON value model, parser, and writer, plus the
//!   [`json::ToJson`]/[`json::FromJson`] traits the result types implement.
//! * [`propcheck`] — a seeded property-test harness in the spirit of
//!   QuickCheck: run a closure over many deterministic random cases and
//!   report the failing case index on panic.
//! * [`par`] — the sanctioned scoped worker pool with deterministic result
//!   ordering; the only module in the workspace allowed to spawn threads.
//! * [`convert`] — named, total numeric conversions; the place hot-path
//!   code spells a lossy `as` cast past clippy's cast lints.
//! * [`codec`] — the little-endian binary codec (plus CRC-32 and FNV-1a)
//!   snapshot sections are written with; floats round-trip bit-exactly.

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

pub mod codec;
pub mod convert;
pub mod intern;
pub mod json;
pub mod par;
pub mod propcheck;
pub mod rng;

pub use json::{FromJson, Json, JsonError, ToJson};
pub use par::WorkerPool;
pub use rng::DetRng;
