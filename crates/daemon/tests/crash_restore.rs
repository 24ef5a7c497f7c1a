//! Kill-anywhere crash safety, end to end against the real binary: a
//! daemon run is SIGKILLed at an arbitrary wall-clock instant, restarted
//! with `--restore`, and the finished journal file must be byte-identical
//! to the `--oneshot` reference — including when `--restore` is pointed at
//! a corrupted snapshot file and the daemon has to fall back to the newest
//! valid one.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "test code, exempt like every #[cfg(test)] module: it times the kill against the wall clock and writes under the OS temp dir"
)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Long enough (at `--ticks-per-sec 200`, 3 s of wall clock) that the kill
/// lands mid-run; the restored run finishes the rest at max speed.
const SESSION: &str = "\
seed=19
mds=3
duration=600
epoch=20
clients=4
scale=0.02
workload=mixed
balancer=lunule
capacity=400
crash@40:1:60
clients@80:4
addmds@150
knob@300:if_threshold:0.15
";

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lunule-daemon"))
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lunule-crash-restore-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn wait_for_snapshot(dir: &Path, deadline: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        let found = fs::read_dir(dir).ok().map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .any(|e| e.file_name().to_string_lossy().ends_with(".lsnap"))
        });
        if found == Some(true) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

#[test]
fn sigkill_then_restore_matches_the_oneshot_journal_byte_for_byte() {
    let dir = scratch_dir();
    let script = dir.join("session.lds");
    fs::write(&script, SESSION).unwrap();
    let (ref_dir, run_dir, snap_dir) = (dir.join("ref"), dir.join("run"), dir.join("snaps"));

    // Reference: the one-shot batch export of the same session.
    let status = bin()
        .args(["--script"])
        .arg(&script)
        .args(["--oneshot", "--label", "s", "--journal-dir"])
        .arg(&ref_dir)
        .status()
        .expect("run oneshot reference");
    assert!(status.success(), "oneshot reference failed");

    // Paced daemon run with periodic snapshots, killed mid-flight. The
    // kill is SIGKILL — no flush, no atexit — at an arbitrary instant
    // relative to tick, journal, and snapshot writes.
    let mut child = bin()
        .args(["--script"])
        .arg(&script)
        .args(["--label", "s", "--ticks-per-sec", "200", "--journal-dir"])
        .arg(&run_dir)
        .args(["--snapshot-every", "10", "--snapshot-dir"])
        .arg(&snap_dir)
        .spawn()
        .expect("spawn daemon");
    assert!(
        wait_for_snapshot(&snap_dir, Duration::from_secs(20)),
        "daemon never wrote a snapshot"
    );
    std::thread::sleep(Duration::from_millis(400));
    let _ = child.kill();
    let _ = child.wait();

    // Point --restore at a *corrupted* snapshot file: the daemon must
    // reject it (bad checksum) and fall back to the newest valid sibling.
    let mut snaps: Vec<PathBuf> = fs::read_dir(&snap_dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.to_string_lossy().ends_with(".lsnap"))
        .collect();
    snaps.sort();
    let newest = snaps.last().expect("at least one snapshot").clone();
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    let corrupt = snap_dir.join("snap-00000000000000999999.lsnap");
    fs::write(&corrupt, &bytes).unwrap();

    let status = bin()
        .args(["--script"])
        .arg(&script)
        .args(["--label", "s", "--max-speed", "--journal-dir"])
        .arg(&run_dir)
        .args(["--restore"])
        .arg(&corrupt)
        .status()
        .expect("run restored daemon");
    assert!(status.success(), "restored daemon failed");

    let reference = fs::read_to_string(ref_dir.join("s.events.jsonl")).unwrap();
    let stitched = fs::read_to_string(run_dir.join("s.events.jsonl")).unwrap();
    assert!(!reference.is_empty());
    assert_eq!(
        stitched, reference,
        "stitched post-restore journal must equal the uninterrupted reference"
    );
    let _ = fs::remove_dir_all(&dir);
}
