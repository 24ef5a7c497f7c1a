//! `lunule-daemon`: run a Lunule cluster as a long-lived, operable
//! service.
//!
//! ```text
//! lunule-daemon --script examples/session.lds [flags]
//!
//!   --script FILE        session script (.lds) to run (required)
//!   --oneshot            run the batch reference path instead of the loop
//!   --max-speed          no pacing: ticks run as fast as they compute (default)
//!   --ticks-per-sec F    real-time pacing at F ticks per wall second
//!   --journal-dir DIR    write <label>.events.jsonl here (default: results)
//!   --label NAME         journal file stem (default: script file stem)
//!   --status-every N     periodic status line cadence in ticks (default 0 = off)
//!   --interactive        also accept commands on stdin (crash:1:60, pause, ...)
//!   --stdout             stream journal events (and status) to stdout too
//!   --snapshot-dir DIR   write crash-safe state snapshots here
//!   --snapshot-every N   snapshot cadence in ticks (0 = only on `snapshot` commands)
//!   --restore PATH       resume from a snapshot file, or from the newest
//!                        valid snapshot when PATH is a directory
//!   --profile PATH       time the phases of every tick; write the totals
//!                        to PATH and the tick spans as a Chrome trace to
//!                        PATH with its extension replaced by .trace.json
//! ```
//!
//! The same script through `--oneshot` and through the daemon loop at
//! `--max-speed` produces byte-identical journal files — that equivalence
//! is the headline invariant this binary exists to demonstrate. With
//! snapshots enabled the invariant survives a kill at **any** instant:
//! `--restore` stitches the old journal at the snapshot's clock position,
//! re-simulates from there (catching up at max speed under real-time
//! pacing), and the finished journal is byte-identical to an
//! uninterrupted run's. `--profile` reads the wall clock beside the
//! simulation and leaves the journal unchanged.

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

use lunule_daemon::{
    run_oneshot_profiled, Catchup, CommandSource, CompositeSource, Daemon, JournalFileSink,
    JsonlWriter, MaxSpeed, Pacer, RealTime, ScriptSource, Session, StdinSource,
};
use lunule_sim::Profile;
use lunule_snapshot::Snapshot;
use std::io::Write;
use std::path::{Path, PathBuf};

struct Cli {
    script: PathBuf,
    oneshot: bool,
    ticks_per_sec: Option<f64>,
    journal_dir: PathBuf,
    label: Option<String>,
    status_every: u64,
    interactive: bool,
    stdout: bool,
    snapshot_dir: Option<PathBuf>,
    snapshot_every: u64,
    restore: Option<PathBuf>,
    profile: Option<PathBuf>,
}

#[allow(clippy::exit)]
fn usage(err: &str) -> ! {
    let mut stderr = std::io::stderr();
    let _ = writeln!(stderr, "lunule-daemon: {err}");
    let _ = writeln!(
        stderr,
        "usage: lunule-daemon --script FILE [--oneshot] [--max-speed | --ticks-per-sec F]\n\
         \x20                    [--journal-dir DIR] [--label NAME] [--status-every N]\n\
         \x20                    [--interactive] [--stdout] [--snapshot-dir DIR]\n\
         \x20                    [--snapshot-every N] [--restore PATH] [--profile PATH]"
    );
    std::process::exit(2)
}

#[allow(clippy::exit)]
fn fail(err: &str) -> ! {
    let _ = writeln!(std::io::stderr(), "lunule-daemon: {err}");
    std::process::exit(1)
}

#[expect(
    clippy::disallowed_methods,
    reason = "the CLI reads its flags from std::env::args; they select pacing, sinks and the script path, none of which feed the simulation"
)]
fn parse_cli() -> Cli {
    let mut cli = Cli {
        script: PathBuf::new(),
        oneshot: false,
        ticks_per_sec: None,
        journal_dir: PathBuf::from("results"),
        label: None,
        status_every: 0,
        interactive: false,
        stdout: false,
        snapshot_dir: None,
        snapshot_every: 0,
        restore: None,
        profile: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--script" => match args.next() {
                Some(v) => cli.script = PathBuf::from(v),
                None => usage("--script needs a file"),
            },
            "--oneshot" => cli.oneshot = true,
            "--max-speed" => cli.ticks_per_sec = None,
            "--ticks-per-sec" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => cli.ticks_per_sec = Some(v),
                _ => usage("--ticks-per-sec needs a positive number"),
            },
            "--journal-dir" => match args.next() {
                Some(v) => cli.journal_dir = PathBuf::from(v),
                None => usage("--journal-dir needs a directory"),
            },
            "--label" => match args.next() {
                Some(v) => cli.label = Some(v),
                None => usage("--label needs a name"),
            },
            "--status-every" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => cli.status_every = v,
                None => usage("--status-every needs a tick count"),
            },
            "--interactive" => cli.interactive = true,
            "--stdout" => cli.stdout = true,
            "--snapshot-dir" => match args.next() {
                Some(v) => cli.snapshot_dir = Some(PathBuf::from(v)),
                None => usage("--snapshot-dir needs a directory"),
            },
            "--snapshot-every" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => cli.snapshot_every = v,
                None => usage("--snapshot-every needs a tick count"),
            },
            "--restore" => match args.next() {
                Some(v) => cli.restore = Some(PathBuf::from(v)),
                None => usage("--restore needs a snapshot file or directory"),
            },
            "--profile" => match args.next() {
                Some(v) => cli.profile = Some(PathBuf::from(v)),
                None => usage("--profile needs a file"),
            },
            "--help" | "-h" => usage("help"),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    if cli.script.as_os_str().is_empty() {
        usage("--script is required");
    }
    if cli.oneshot && cli.restore.is_some() {
        usage("--restore does not combine with --oneshot");
    }
    cli
}

/// Loads the snapshot `--restore` names: a snapshot file directly, or the
/// newest valid snapshot in a directory. A corrupt, truncated, or foreign
/// file falls back to the newest valid sibling in its directory — the
/// recovery behaviour the self-validating format exists for.
fn load_snapshot(restore: &Path, digest: u64) -> Snapshot {
    let scan = |dir: &Path| match lunule_snapshot::find_latest_valid(dir, Some(digest)) {
        Ok(found) => found,
        Err(e) => fail(&format!("cannot scan {}: {e}", dir.display())),
    };
    if restore.is_dir() {
        match scan(restore) {
            Some((path, snap)) => {
                let _ = writeln!(
                    std::io::stderr(),
                    "restoring from {} (tick {})",
                    path.display(),
                    snap.tick
                );
                return snap;
            }
            None => fail(&format!(
                "no valid snapshot for this session in {}",
                restore.display()
            )),
        }
    }
    let direct = lunule_snapshot::read(restore).and_then(|s| {
        s.check_digest(digest)?;
        Ok(s)
    });
    match direct {
        Ok(snap) => snap,
        Err(e) => {
            let dir = restore.parent().filter(|d| !d.as_os_str().is_empty());
            let fallback = dir.and_then(scan);
            match fallback {
                Some((path, snap)) => {
                    let _ = writeln!(
                        std::io::stderr(),
                        "lunule-daemon: {}: {e}; falling back to {} (tick {})",
                        restore.display(),
                        path.display(),
                        snap.tick
                    );
                    snap
                }
                None => fail(&format!(
                    "{}: {e} (and no valid fallback snapshot found)",
                    restore.display()
                )),
            }
        }
    }
}

/// Writes PROFILE.json to `path` and the tick spans as a Chrome trace
/// beside it (`<stem>.trace.json`).
fn write_profile(path: &Path, profile: &Profile) {
    let trace = path.with_extension("trace.json");
    let json = profile.to_json().to_string_pretty();
    for (file, text) in [(path, json), (trace.as_path(), profile.chrome_trace())] {
        if let Some(dir) = file.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(dir) {
                fail(&format!("cannot create {}: {e}", dir.display()));
            }
        }
        if let Err(e) = std::fs::write(file, text) {
            fail(&format!("cannot write {}: {e}", file.display()));
        }
    }
    let _ = writeln!(
        std::io::stderr(),
        "profile: {} ticks, phases cover {:.1}% -> {}",
        profile.ticks,
        100.0 * profile.coverage(),
        path.display()
    );
}

fn script_label(cli: &Cli) -> String {
    if let Some(label) = &cli.label {
        return label.clone();
    }
    cli.script
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "session".to_string())
}

fn main() {
    let cli = parse_cli();
    let text = match std::fs::read_to_string(&cli.script) {
        Ok(text) => text,
        Err(e) => fail(&format!("cannot read {}: {e}", cli.script.display())),
    };
    let session = match Session::parse(&text) {
        Ok(session) => session,
        Err(e) => fail(&format!("{}: {e}", cli.script.display())),
    };
    let label = script_label(&cli);

    if cli.oneshot {
        let (result, snapshot, profile) = run_oneshot_profiled(&session, cli.profile.is_some());
        if let Err(e) = std::fs::create_dir_all(&cli.journal_dir) {
            fail(&format!("cannot create {}: {e}", cli.journal_dir.display()));
        }
        let path = cli.journal_dir.join(format!("{label}.events.jsonl"));
        if let Err(e) = std::fs::write(&path, lunule_telemetry::events_jsonl(&snapshot)) {
            fail(&format!("cannot write {}: {e}", path.display()));
        }
        let _ = writeln!(
            std::io::stderr(),
            "oneshot: {} ticks, {} ops, {} events -> {}",
            result.duration_secs,
            result.total_ops,
            snapshot.events.len(),
            path.display()
        );
        if let Some(path) = &cli.profile {
            write_profile(path, &profile);
        }
        return;
    }

    let telemetry = lunule_telemetry::Telemetry::enabled();
    let restored = cli
        .restore
        .as_deref()
        .map(|path| load_snapshot(path, session.digest()));
    let (mut sim, pool) = match &restored {
        Some(snap) => match session.build_restored(telemetry, snap) {
            Ok(built) => built,
            Err(e) => fail(&format!("cannot restore: {e}")),
        },
        None => session.build(telemetry),
    };
    let mut script = ScriptSource::new(session.commands.clone());
    if let Some(snap) = &restored {
        // Commands before the snapshot tick already applied; their effects
        // are part of the restored state.
        script.skip_until(snap.tick);
    }
    let source: Box<dyn CommandSource> = if cli.interactive {
        let lines = lunule_daemon::spawn_stdin_reader();
        Box::new(CompositeSource(script, StdinSource::new(lines)))
    } else {
        Box::new(script)
    };
    sim.set_profiling(cli.profile.is_some());
    let mut daemon = Daemon::new(sim, pool, source);
    daemon.set_status_every(cli.status_every);
    if let Some(dir) = &cli.snapshot_dir {
        daemon.set_snapshots(dir.clone(), cli.snapshot_every);
    }
    // Journal sink: fresh for a new run; for a restore, the interrupted
    // run's journal stitched at the snapshot's clock position so the
    // finished file matches an uninterrupted run byte-for-byte.
    let (sink, catchup_target) = if restored.is_some() {
        let (clock, seq) = daemon.sim().telemetry().clock_position();
        match JournalFileSink::resume(&cli.journal_dir, &label, clock, seq) {
            // The dead run had completed every tick whose events it
            // journaled, so catching up means passing the last stamped one.
            Ok((sink, reached)) => (sink, Some(reached + 1)),
            Err(e) => fail(&format!(
                "cannot resume journal in {}: {e}",
                cli.journal_dir.display()
            )),
        }
    } else {
        match JournalFileSink::create(&cli.journal_dir, &label) {
            Ok(sink) => (sink, None),
            Err(e) => fail(&format!(
                "cannot open journal in {}: {e}",
                cli.journal_dir.display()
            )),
        }
    };
    let journal_path = sink.path().to_path_buf();
    daemon.subscribe(Box::new(sink));
    if cli.stdout {
        daemon.subscribe(Box::new(JsonlWriter::with_status(std::io::stdout())));
    }

    let mut pacer: Box<dyn Pacer> = match (cli.ticks_per_sec, catchup_target) {
        (Some(tps), Some(target)) => Box::new(Catchup::new(target, RealTime::new(tps))),
        (Some(tps), None) => Box::new(RealTime::new(tps)),
        (None, _) => Box::new(MaxSpeed),
    };
    if let Err(e) = daemon.run(pacer.as_mut()) {
        fail(&format!("event bus error: {e}"));
    }
    let ticks = daemon.sim().now();
    if let Some(path) = &cli.profile {
        write_profile(path, daemon.sim().profile());
    }
    match daemon.finish() {
        Ok(result) => {
            let _ = writeln!(
                std::io::stderr(),
                "daemon: {} ticks, {} ops -> {}",
                ticks,
                result.total_ops,
                journal_path.display()
            );
        }
        Err(e) => fail(&format!("finish failed: {e}")),
    }
}
