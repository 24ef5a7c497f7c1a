//! # lunule-daemon
//!
//! Runs the simulated Lunule MDS cluster as a **long-lived, operable
//! service** instead of a one-shot batch run: a tick loop advances the
//! [`lunule_sim::Simulation`] in real time (`--ticks-per-sec`) or at max
//! speed, a [`CommandSource`] feeds operator commands into each tick
//! boundary, and an event bus streams the typed `lunule-telemetry` journal
//! plus periodic status snapshots to [`Subscriber`]s (stdout JSONL, file
//! sinks).
//!
//! ## Command grammar
//!
//! Session scripts (`.lds` files, see [`session`]) extend the
//! `lunule-faults` spec grammar: fault events (`crash@120:1:60`, …) parse
//! through exactly [`lunule_faults::parse_fault_kind`], and the daemon
//! adds control commands in the same `kind@tick:field:...` shape —
//! `recover@T:R`, `addmds@T[:N]`, `drain@T:R`, `clients@T:N`,
//! `knob@T:name:value`, `pause@T`, `step@T:N`, `resume@T`, `status@T`,
//! `stop@T`. The interactive stdin protocol is the same commands without
//! the `@tick` (they take effect at the next tick boundary).
//!
//! ## Determinism boundary
//!
//! The headline invariant: **a scripted session at max speed produces a
//! byte-identical telemetry journal to the equivalent one-shot run**
//! ([`oneshot::run_oneshot`]). Everything on the simulation side of the
//! bus is driven purely by the deterministic tick clock; wall-clock time
//! and threads exist only in [`pacing`], which decides *when* the next
//! tick runs, never *what* it computes. Pause/step/resume are pacing-layer
//! states and leave the journal untouched.

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

pub mod bus;
pub mod command;
pub mod daemon;
pub mod oneshot;
pub mod pacing;
pub mod session;
pub mod source;

pub use bus::{JournalFileSink, JsonlWriter, StatusSnapshot, Subscriber};
pub use command::{apply_command, Command, TimedCommand};
pub use daemon::{Daemon, RunState};
pub use oneshot::{run_oneshot, run_oneshot_profiled};
pub use pacing::{spawn_stdin_reader, Catchup, MaxSpeed, Pacer, RealTime};
pub use session::{Session, SessionError};
pub use source::{
    parse_interactive, CommandSource, CompositeSource, QueueSource, ScriptSource, StdinSource,
};
