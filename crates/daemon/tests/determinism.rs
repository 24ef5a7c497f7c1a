//! The daemon's headline invariant: a scripted session run through the
//! daemon loop at max speed journals **byte-identically** to the same
//! session run through the one-shot reference path — and pacing commands
//! (pause/step/resume/status) never perturb the journal.

use lunule_daemon::{run_oneshot, Daemon, JournalFileSink, MaxSpeed, ScriptSource, Session};
use lunule_telemetry::{events_jsonl, Telemetry};
use std::fs;
use std::path::{Path, PathBuf};

/// A session that exercises every operator surface the issue names: a
/// workload shift (client growth), a rank crash with forced early
/// recovery, cluster expansion, and a balancer knob change.
const SESSION: &str = "\
# determinism fixture: keep in sync with the oneshot expectations below
seed=11
mds=3
duration=240
epoch=20
clients=6
scale=0.02
workload=mixed
balancer=lunule
capacity=400
crash@60:1:120
recover@90:1
clients@100:4
addmds@120
knob@140:if_threshold:0.15
";

#[expect(
    clippy::disallowed_methods,
    reason = "test code, exempt like every #[cfg(test)] module: journals go under the OS temp dir"
)]
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lunule-daemon-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs `session` through the daemon loop at max speed and returns the
/// journal file's bytes.
fn daemon_journal(session: &Session, dir: &Path, label: &str) -> String {
    let (sim, pool) = session.build(Telemetry::enabled());
    let source = ScriptSource::new(session.commands.clone());
    let mut daemon = Daemon::new(sim, pool, source);
    let sink = JournalFileSink::create(dir, label).expect("create journal sink");
    let path = sink.path().to_path_buf();
    daemon.subscribe(Box::new(sink));
    daemon.run(&mut MaxSpeed).expect("daemon run");
    daemon.finish().expect("daemon finish");
    fs::read_to_string(path).expect("read journal")
}

fn oneshot_journal(session: &Session) -> String {
    let (_result, snapshot) = run_oneshot(session);
    events_jsonl(&snapshot)
}

#[test]
fn scripted_daemon_at_max_speed_matches_oneshot_byte_for_byte() {
    let session = Session::parse(SESSION).expect("parse session");
    let dir = scratch_dir("identity");
    let streamed = daemon_journal(&session, &dir, "daemon");
    let exported = oneshot_journal(&session);
    assert!(
        !exported.is_empty(),
        "fixture session must journal something"
    );
    assert_eq!(
        streamed, exported,
        "daemon journal must be byte-identical to the one-shot export"
    );
    // The session actually exercised its operator surface.
    for kind in [
        "\"type\":\"rank_crashed\"",
        "\"type\":\"rank_recovered\"",
        "\"type\":\"mds_add\"",
        "\"type\":\"knob_set\"",
    ] {
        assert!(exported.contains(kind), "missing {kind} in journal");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn pause_step_resume_leave_the_journal_unchanged() {
    let plain = Session::parse(SESSION).expect("parse plain session");
    // Same session with pacing commands sprinkled mid-run: an immediate
    // step-through pause, and a pause whose resume tick can only arrive
    // via the paused-lookahead path (the clock freezes at 150).
    let paced_text =
        format!("{SESSION}pause@80\nstep@80:5\nresume@85\npause@150\nresume@170\nstatus@200\n");
    let paced = Session::parse(&paced_text).expect("parse paced session");
    let dir = scratch_dir("pacing");
    let plain_journal = daemon_journal(&plain, &dir, "plain");
    let paced_journal = daemon_journal(&paced, &dir, "paced");
    assert_eq!(
        plain_journal, paced_journal,
        "pause/step/resume/status must not perturb the journal"
    );
    // And the one-shot runner ignores pacing commands entirely, closing
    // the triangle: paced-daemon == plain-daemon == oneshot.
    assert_eq!(paced_journal, oneshot_journal(&paced));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stop_truncates_identically_in_both_paths() {
    let text = format!("{SESSION}stop@180\n");
    let session = Session::parse(&text).expect("parse session");
    let dir = scratch_dir("stop");
    let streamed = daemon_journal(&session, &dir, "stopped");
    let exported = oneshot_journal(&session);
    assert_eq!(
        streamed, exported,
        "stop@180 must truncate both paths alike"
    );
    // Truncation really happened: nothing journaled at or past tick 180.
    let last_t = streamed
        .lines()
        .rev()
        .find_map(|l| {
            l.split("\"t\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|n| n.parse::<u64>().ok())
        })
        .expect("journal has timestamps");
    assert!(last_t < 180, "journal must end before the stop tick");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn session_scripts_round_trip_through_format() {
    let session = Session::parse(SESSION).expect("parse session");
    let canonical = session.format();
    let reparsed = Session::parse(&canonical).expect("reparse canonical form");
    assert_eq!(canonical, reparsed.format(), "format must be a fixpoint");
    // Canonical form runs identically to the original.
    assert_eq!(oneshot_journal(&session), oneshot_journal(&reparsed));
}
