//! The one-shot reference path: run a session as a batch job.
//!
//! This is what every bench binary already does — `run_until` to each
//! boundary of interest, mutate, continue — expressed over a parsed
//! [`Session`]. It is the *reference semantics* the daemon loop is held
//! to: for any scripted session, the telemetry journal produced here must
//! be byte-identical to the journal the daemon streams at max speed
//! (`tests/determinism.rs` pins this).

use crate::command::{apply_command, Command};
use crate::session::Session;
use lunule_sim::{Profile, RunResult};
use lunule_telemetry::{Snapshot, Telemetry};

/// Runs `session` start-to-finish without a daemon loop: commands are
/// applied at their tick boundaries via `run_until`, journal-neutral
/// pacing commands (`pause`/`step`/`resume`/`status`) are skipped, and a
/// `stop` command truncates the run exactly as it stops the daemon loop.
/// Returns the run results and the full telemetry snapshot (taken after
/// `finish`, so the flushed partial epoch is included — same as the
/// daemon's journal tail).
pub fn run_oneshot(session: &Session) -> (RunResult, Snapshot) {
    let (result, snapshot, _) = run_oneshot_profiled(session, false);
    (result, snapshot)
}

/// [`run_oneshot`] with the simulator's phase profiler on or off; also
/// returns what the profiler measured. The journal does not depend on
/// `profiling`.
pub fn run_oneshot_profiled(session: &Session, profiling: bool) -> (RunResult, Snapshot, Profile) {
    let telemetry = Telemetry::enabled();
    let (mut sim, mut pool) = session.build(telemetry.clone());
    sim.set_profiling(profiling);
    let mut stopped = false;
    for tc in &session.commands {
        if tc.command.is_journal_neutral() {
            continue;
        }
        sim.run_until(tc.at_tick);
        if sim.now() < tc.at_tick {
            // The run ended before this command's tick; the daemon loop
            // would have stopped polling here too.
            break;
        }
        if matches!(tc.command, Command::Stop) {
            stopped = true;
            break;
        }
        apply_command(&mut sim, &mut pool, &tc.command);
    }
    if !stopped {
        sim.run_until(u64::MAX);
    }
    let profile = sim.profile().clone();
    let result = sim.finish();
    let snapshot = telemetry.snapshot().unwrap_or_default();
    (result, snapshot, profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oneshot_applies_commands_and_truncates_on_stop() {
        let session = Session::parse(
            "seed=5\nmds=2\nduration=100\nepoch=10\nclients=2\nscale=0.01\n\
             workload=zipf\nbalancer=off\ncapacity=100\n\
             addmds@20\nstop@50\n",
        )
        .unwrap();
        let (result, snapshot) = run_oneshot(&session);
        assert_eq!(result.duration_secs, 50, "stop@50 truncates");
        // A command at tick T applies on the boundary after tick T-1 ran,
        // so it journals with the T-1 clock — the same convention the
        // end-of-tick epoch flush uses.
        assert!(snapshot
            .events
            .iter()
            .any(|r| r.event.kind() == "mds_add" && r.t == 19));
    }
}
