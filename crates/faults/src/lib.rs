//! # lunule-faults
//!
//! Deterministic fault injection for the Lunule stack. A
//! [`FaultSchedule`] is an immutable, tick-sorted stream of fault events —
//! MDS crashes with timed recovery, degraded-capacity "limping" ranks,
//! dropped load reports, and migration stalls — that the simulator replays
//! as its clock advances. Schedules are built either by scripting exact
//! events through a [`FaultPlan`], by seeding a [`ChaosProfile`] (many
//! random-but-reproducible schedules for soak testing), or by parsing a
//! compact CLI spec string ([`parse_spec`]).
//!
//! Everything here is tick-based and free of wall time or ambient
//! randomness: the same seed always yields the same schedule, so a failing
//! chaos run reproduces exactly from its seed.
//!
//! The `kind@tick:field:...` event tokenizer behind [`parse_spec`] is
//! exported ([`tokenize_event`], [`EventLine`], [`parse_fault_kind`],
//! [`format_spec`]) so extension grammars — the `lunule-daemon` session
//! scripts — parse fault events through exactly this code path.

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

mod plan;
mod schedule;
mod spec;

pub use plan::{seeded, ChaosProfile, FaultPlan};
pub use schedule::{FaultEvent, FaultKind, FaultSchedule};
pub use spec::{
    format_fault_event, format_spec, parse_fault_kind, parse_spec, tokenize_event, EventLine,
    SpecError,
};
