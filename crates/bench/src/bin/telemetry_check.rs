//! Round-trip validator for telemetry exports: parses every
//! `*.events.jsonl` back through the typed event decoder and structurally
//! validates every `*.trace.json` as Chrome `trace_event` JSON (the format
//! Perfetto loads). CI runs this against the artifacts a `--telemetry-out`
//! run produced; a malformed file fails the build.
//!
//! Usage: `telemetry_check <dir>`

use lunule_telemetry::{parse_events_jsonl, validate_chrome_trace, Event, EventRecord};
use std::path::Path;

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| {
        eprintln!("usage: telemetry_check <dir>");
        std::process::exit(2);
    });
    match check_dir(Path::new(&dir)) {
        Ok((events, traces)) => {
            println!(
                "telemetry_check: ok — {events} event(s) across JSONL logs, \
                 {traces} Chrome trace entr(ies) validated in {dir}"
            );
        }
        Err(msg) => {
            eprintln!("telemetry_check: FAILED — {msg}");
            std::process::exit(1);
        }
    }
}

/// Validates every telemetry file under `dir`; returns (total events
/// round-tripped, total trace entries validated).
fn check_dir(dir: &Path) -> Result<(usize, usize), String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    names.sort();
    let (mut n_events, mut n_trace, mut n_files) = (0usize, 0usize, 0usize);
    for path in &names {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.ends_with(".events.jsonl") {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let events = parse_events_jsonl(&text)
                .map_err(|e| format!("{}: bad event log: {e}", path.display()))?;
            check_fault_events(&events).map_err(|e| format!("{}: {e}", path.display()))?;
            check_stamps(&events).map_err(|e| format!("{}: {e}", path.display()))?;
            n_events += events.len();
            n_files += 1;
        } else if name.ends_with(".trace.json") {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            n_trace += validate_chrome_trace(&text)
                .map_err(|e| format!("{}: bad Chrome trace: {e}", path.display()))?;
            n_files += 1;
        }
    }
    if n_files == 0 {
        return Err(format!("no telemetry files found in {}", dir.display()));
    }
    Ok((n_events, n_trace))
}

/// Validates the `(t, seq)` stamping discipline the deterministic clock
/// guarantees: ticks never go backwards, the first event of each tick has
/// `seq == 0`, and within a tick `seq` is contiguous. An uninterrupted run
/// satisfies this by construction; a journal stitched together across a
/// crash/restore (`--restore`) must satisfy it too — a duplicate, dropped,
/// or out-of-order record at the stitch point fails here.
fn check_stamps(events: &[EventRecord]) -> Result<(), String> {
    let mut prev: Option<(u64, u64)> = None;
    for rec in events {
        if let Some((t, seq)) = prev {
            let broken = if rec.t < t {
                Some("tick goes backwards")
            } else if rec.t > t && rec.seq != 0 {
                Some("tick does not start at seq 0")
            } else if rec.t == t && rec.seq <= seq {
                Some("duplicate or reordered record")
            } else if rec.t == t && rec.seq > seq + 1 {
                Some("seq gap: a record was dropped")
            } else {
                None
            };
            if let Some(why) = broken {
                return Err(format!(
                    "stamp ({}, {}) after ({t}, {seq}): {why}",
                    rec.t, rec.seq
                ));
            }
        }
        prev = Some((rec.t, rec.seq));
    }
    Ok(())
}

/// Structural validation of the fault-injection event family: every
/// `FaultInjected` must carry a known kind label, crash/recovery events
/// must pair up (recoveries never exceed crashes), and migration retries
/// never exceed timeouts — a journal violating these was not produced by
/// the simulator's fault path.
fn check_fault_events(events: &[EventRecord]) -> Result<(), String> {
    const KNOWN_KINDS: [&str; 4] = ["crash", "limp", "report_loss", "migration_stall"];
    let (mut injected, mut crashes, mut recoveries) = (0u64, 0u64, 0u64);
    let (mut timeouts, mut retries) = (0u64, 0u64);
    for rec in events {
        match &rec.event {
            Event::FaultInjected { kind, .. } => {
                if !KNOWN_KINDS.contains(&kind.as_str()) {
                    return Err(format!("unknown fault kind '{kind}' in event log"));
                }
                injected += 1;
            }
            Event::RankCrashed { .. } => crashes += 1,
            Event::RankRecovered { .. } => recoveries += 1,
            Event::MigrationTimedOut { .. } => timeouts += 1,
            Event::MigrationRetried { .. } => retries += 1,
            _ => {}
        }
    }
    if crashes > injected {
        return Err(format!(
            "{crashes} rank_crashed events but only {injected} fault_injected"
        ));
    }
    if recoveries > crashes {
        return Err(format!("{recoveries} recoveries exceed {crashes} crashes"));
    }
    if retries > timeouts {
        return Err(format!(
            "{retries} migration retries exceed {timeouts} timeouts"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A journal record carrying only its stamp.
    fn journal(stamps: &[(u64, u64)]) -> Vec<EventRecord> {
        stamps
            .iter()
            .map(|&(t, seq)| EventRecord {
                t,
                seq,
                event: Event::TickStart,
            })
            .collect()
    }

    fn rejection(stamps: &[(u64, u64)]) -> String {
        check_stamps(&journal(stamps)).expect_err("journal must be rejected")
    }

    #[test]
    fn stamps_accept_a_clean_journal() {
        // Ticks may be skipped (idle ticks record nothing).
        let clean = [(0, 0), (0, 1), (0, 2), (1, 0), (3, 0), (3, 1)];
        assert_eq!(check_stamps(&journal(&clean)), Ok(()));
        assert_eq!(check_stamps(&[]), Ok(()));
    }

    #[test]
    fn stamps_reject_a_duplicated_record() {
        let err = rejection(&[(0, 0), (0, 1), (0, 1), (0, 2)]);
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn stamps_reject_a_dropped_seq() {
        let err = rejection(&[(0, 0), (0, 1), (0, 3)]);
        assert!(err.contains("dropped"), "{err}");
    }

    #[test]
    fn stamps_reject_a_tick_not_starting_at_seq_zero() {
        let err = rejection(&[(0, 0), (1, 1), (1, 2)]);
        assert!(err.contains("seq 0"), "{err}");
    }

    #[test]
    fn stamps_reject_a_tick_going_backwards() {
        let err = rejection(&[(2, 0), (2, 1), (1, 0)]);
        assert!(err.contains("backwards"), "{err}");
    }
}
