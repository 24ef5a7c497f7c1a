//! The event bus: streaming journal events and status snapshots out of
//! the daemon.
//!
//! Subscribers receive two disjoint streams:
//!
//! * **journal events** — the typed `lunule-telemetry` [`EventRecord`]s,
//!   streamed in emission order via [`Subscriber::on_events`]. A journal
//!   sink writes exactly what `lunule_telemetry::events_jsonl` would
//!   export — one compact JSON object per line — which is what makes the
//!   streamed journal byte-identical to the one-shot export;
//! * **status snapshots** — periodic [`StatusSnapshot`]s via
//!   [`Subscriber::on_status`]. Status is operator feedback, *never* part
//!   of the journal: it goes to separate sinks so pausing, stepping and
//!   `status` commands cannot perturb the byte-identity invariant.

use lunule_sim::Simulation;
use lunule_telemetry::EventRecord;
use lunule_util::json::{Json, ToJson};
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// A point-in-time operator view of the cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct StatusSnapshot {
    /// Current simulated tick.
    pub tick: u64,
    /// Whether the loop is paused.
    pub paused: bool,
    /// MDS ranks in the cluster (including down/drained ones).
    pub n_mds: usize,
    /// Per-rank crash status (`true` = currently down).
    pub down_ranks: Vec<bool>,
    /// Clients attached (including finished ones).
    pub clients: usize,
    /// Flows actually stepped per tick: live client cohorts (a million
    /// clients can be a handful of flows).
    pub flows: usize,
    /// Metadata ops completed so far.
    pub total_ops: u64,
    /// Migration jobs in flight (transferring, committing, or parked).
    pub inflight_migrations: u64,
    /// Resident (authoritative) inodes per rank.
    pub resident_inodes: Vec<u64>,
    /// Tick of the most recent on-disk snapshot this session wrote
    /// (`None` until the first one; always `None` when snapshots are off).
    pub last_snapshot_tick: Option<u64>,
    /// Snapshots written so far this session.
    pub snapshots: u64,
}

impl StatusSnapshot {
    /// Captures the current cluster state.
    pub fn capture(sim: &Simulation, paused: bool) -> Self {
        StatusSnapshot {
            tick: sim.now(),
            paused,
            n_mds: sim.n_mds(),
            down_ranks: sim.down_ranks(),
            clients: sim.n_clients(),
            flows: sim.n_flows(),
            total_ops: sim.total_ops(),
            inflight_migrations: sim.inflight_migrations(),
            resident_inodes: sim.resident_inodes().to_vec(),
            last_snapshot_tick: None,
            snapshots: 0,
        }
    }

    /// One compact JSON line, tagged `"type":"status"` so consumers can
    /// tell it apart from journal events on a shared stream.
    pub fn to_json_line(&self) -> String {
        let down: Vec<Json> = self.down_ranks.iter().map(|d| Json::Bool(*d)).collect();
        let resident: Vec<Json> = self.resident_inodes.iter().map(|r| r.to_json()).collect();
        Json::Obj(vec![
            ("type".to_string(), "status".to_json()),
            ("tick".to_string(), self.tick.to_json()),
            ("paused".to_string(), self.paused.to_json()),
            ("n_mds".to_string(), self.n_mds.to_json()),
            ("down_ranks".to_string(), Json::Arr(down)),
            ("clients".to_string(), self.clients.to_json()),
            ("flows".to_string(), self.flows.to_json()),
            ("total_ops".to_string(), self.total_ops.to_json()),
            (
                "inflight_migrations".to_string(),
                self.inflight_migrations.to_json(),
            ),
            ("resident_inodes".to_string(), Json::Arr(resident)),
            (
                "last_snapshot_tick".to_string(),
                match self.last_snapshot_tick {
                    Some(t) => t.to_json(),
                    None => Json::Null,
                },
            ),
            ("snapshots".to_string(), self.snapshots.to_json()),
        ])
        .to_string_compact()
    }
}

/// A consumer on the event bus.
pub trait Subscriber {
    /// Delivers a batch of journal events, in emission order.
    fn on_events(&mut self, batch: &[EventRecord]) -> io::Result<()>;

    /// Delivers a status snapshot. Default: ignore (journal-only sinks).
    fn on_status(&mut self, _status: &StatusSnapshot) -> io::Result<()> {
        Ok(())
    }

    /// Flushes buffered output (called at session end).
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Makes everything delivered so far *durable* — for file sinks,
    /// flush **and** fsync. The daemon calls this right before writing a
    /// snapshot, so a crash immediately after the snapshot still finds
    /// every journal record the snapshot covers on disk. Default: plain
    /// flush (non-file sinks have nothing more durable to offer).
    fn sync(&mut self) -> io::Result<()> {
        self.flush()
    }
}

/// Writes journal events as compact JSONL — byte-for-byte what
/// `lunule_telemetry::events_jsonl` exports — and, when `with_status` is
/// set, interleaves `"type":"status"` lines (for stdout streaming; never
/// for a journal file that will be diffed).
pub struct JsonlWriter<W: Write> {
    out: W,
    with_status: bool,
}

impl<W: Write> JsonlWriter<W> {
    /// A journal-only writer (no status lines).
    pub fn new(out: W) -> Self {
        JsonlWriter {
            out,
            with_status: false,
        }
    }

    /// A combined stream: journal events plus status lines.
    pub fn with_status(out: W) -> Self {
        JsonlWriter {
            out,
            with_status: true,
        }
    }

    /// The underlying stream — for owners that need more than `Write`
    /// (e.g. a file sink fsyncing after a flush).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.out
    }
}

impl<W: Write> Subscriber for JsonlWriter<W> {
    fn on_events(&mut self, batch: &[EventRecord]) -> io::Result<()> {
        for record in batch {
            self.out
                .write_all(record.to_json().to_string_compact().as_bytes())?;
            self.out.write_all(b"\n")?;
        }
        Ok(())
    }

    fn on_status(&mut self, status: &StatusSnapshot) -> io::Result<()> {
        if self.with_status {
            self.out.write_all(status.to_json_line().as_bytes())?;
            self.out.write_all(b"\n")?;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Keeps export stems portable: lowercase alphanumerics, `-`, `_` (same
/// policy as the bench harness's telemetry sink).
fn sanitize_label(label: &str) -> String {
    let mut out: String = label
        .chars()
        .map(|c| match c {
            'a'..='z' | '0'..='9' | '-' | '_' => c,
            'A'..='Z' => c.to_ascii_lowercase(),
            _ => '_',
        })
        .collect();
    if out.is_empty() {
        out.push_str("session");
    }
    out
}

/// A journal file sink: `<dir>/<label>.events.jsonl`, the same naming the
/// telemetry exporter uses, so `telemetry_check` validates daemon journals
/// unchanged.
pub struct JournalFileSink {
    path: PathBuf,
    writer: JsonlWriter<BufWriter<fs::File>>,
}

impl JournalFileSink {
    /// Creates `dir` (and parents) and opens the journal file fresh.
    pub fn create(dir: &Path, label: &str) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = journal_path(dir, label);
        let file = fs::File::create(&path)?;
        Ok(JournalFileSink {
            path,
            writer: JsonlWriter::new(BufWriter::new(file)),
        })
    }

    /// Reopens an existing journal for a **restored** session and stitches
    /// it: keeps exactly the records the snapshot covers — those stamped
    /// strictly before the snapshot's telemetry clock position
    /// `(clock, seq)` — truncates anything the interrupted run wrote past
    /// that point (including a torn final line from a mid-write kill), and
    /// appends from there. The restored run re-emits the truncated records
    /// byte-identically, so the finished file matches an uninterrupted
    /// run's journal exactly.
    ///
    /// Returns the sink plus the highest event tick the old journal had
    /// reached — the catch-up target for [`crate::pacing::Catchup`]. A
    /// missing journal file degrades to [`JournalFileSink::create`] with a
    /// target of zero.
    pub fn resume(dir: &Path, label: &str, clock: u64, seq: u64) -> io::Result<(Self, u64)> {
        let path = journal_path(dir, label);
        let old = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok((JournalFileSink::create(dir, label)?, 0));
            }
            Err(e) => return Err(e),
        };
        let mut kept = String::new();
        let mut keeping = true;
        let mut reached = 0u64;
        for line in old.lines() {
            // A torn line (the write the kill interrupted) can only be
            // the last one; it and anything after it is discarded.
            let Some((t, s)) = record_position(line) else {
                break;
            };
            reached = reached.max(t);
            if keeping && (t, s) < (clock, seq) {
                kept.push_str(line);
                kept.push('\n');
            } else {
                keeping = false;
            }
        }
        // Truncate atomically: a kill during the stitch must not lose the
        // journal prefix the snapshot depends on.
        let tmp = path.with_extension("jsonl.tmp");
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(kept.as_bytes())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        let file = fs::OpenOptions::new().append(true).open(&path)?;
        let sink = JournalFileSink {
            path,
            writer: JsonlWriter::new(BufWriter::new(file)),
        };
        Ok((sink, reached))
    }

    /// Where the journal is being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn sync_file(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.writer.get_mut().get_ref().sync_all()
    }
}

impl Subscriber for JournalFileSink {
    fn on_events(&mut self, batch: &[EventRecord]) -> io::Result<()> {
        self.writer.on_events(batch)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_file()
    }
}

impl Drop for JournalFileSink {
    /// Best-effort durability on any exit path — a daemon stopping via
    /// `stop` (or unwinding) leaves the journal flushed and fsynced.
    fn drop(&mut self) {
        let _ = self.sync_file();
    }
}

/// `<dir>/<label>.events.jsonl` — the telemetry exporter's naming, so
/// `telemetry_check` validates daemon journals unchanged.
fn journal_path(dir: &Path, label: &str) -> PathBuf {
    dir.join(format!("{}.events.jsonl", sanitize_label(label)))
}

/// Extracts the `(t, seq)` stamp from one journal line; `None` for a line
/// that is not a complete event record (torn tail write).
fn record_position(line: &str) -> Option<(u64, u64)> {
    use lunule_util::FromJson;
    let v = Json::parse(line).ok()?;
    let t = u64::from_json(v.get("t")?).ok()?;
    let seq = u64::from_json(v.get("seq")?).ok()?;
    Some((t, seq))
}

/// An in-memory collector for tests.
#[derive(Default)]
pub struct MemorySink {
    /// Every event received, in order.
    pub events: Vec<EventRecord>,
    /// Every status snapshot received, in order.
    pub statuses: Vec<StatusSnapshot>,
}

impl Subscriber for MemorySink {
    fn on_events(&mut self, batch: &[EventRecord]) -> io::Result<()> {
        self.events.extend_from_slice(batch);
        Ok(())
    }

    fn on_status(&mut self, status: &StatusSnapshot) -> io::Result<()> {
        self.statuses.push(status.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lunule_telemetry::{Event, Snapshot};

    fn records() -> Vec<EventRecord> {
        vec![
            EventRecord {
                t: 0,
                seq: 0,
                event: Event::RunStart { n_mds: 2 },
            },
            EventRecord {
                t: 3,
                seq: 1,
                event: Event::MdsAdd { rank: 2 },
            },
        ]
    }

    #[test]
    fn jsonl_writer_matches_the_exporter_byte_for_byte() {
        let recs = records();
        let mut sink = JsonlWriter::new(Vec::new());
        sink.on_events(&recs).unwrap();
        let exported = lunule_telemetry::events_jsonl(&Snapshot {
            events: recs,
            ..Snapshot::default()
        });
        assert_eq!(String::from_utf8(sink.out).unwrap(), exported);
    }

    #[test]
    fn status_lines_only_appear_when_asked() {
        let status = StatusSnapshot {
            tick: 9,
            paused: true,
            n_mds: 2,
            down_ranks: vec![false, true],
            clients: 4,
            flows: 4,
            total_ops: 123,
            inflight_migrations: 1,
            resident_inodes: vec![10, 0],
            last_snapshot_tick: Some(8),
            snapshots: 2,
        };
        let mut plain = JsonlWriter::new(Vec::new());
        plain.on_status(&status).unwrap();
        assert!(plain.out.is_empty());
        let mut chatty = JsonlWriter::with_status(Vec::new());
        chatty.on_status(&status).unwrap();
        let line = String::from_utf8(chatty.out).unwrap();
        assert!(line.starts_with(r#"{"type":"status","tick":9"#), "{line}");
        assert!(line.contains(r#""paused":true"#));
        assert!(line.contains(r#""last_snapshot_tick":8"#));
        assert!(line.contains(r#""snapshots":2"#));
    }

    #[test]
    fn resume_truncates_to_the_snapshot_position_and_appends() {
        let dir =
            std::env::temp_dir().join(format!("lunule-daemon-bus-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();

        // An interrupted run's journal: records through (t=3, seq=1),
        // then a torn final line from the kill.
        let mut sink = JournalFileSink::create(&dir, "run").unwrap();
        let pre: Vec<EventRecord> = (0..4u64)
            .flat_map(|t| {
                (0..2u64).map(move |seq| EventRecord {
                    t,
                    seq,
                    event: Event::MdsAdd { rank: 2 },
                })
            })
            .collect();
        sink.on_events(&pre).unwrap();
        sink.flush().unwrap();
        let path = sink.path().to_path_buf();
        drop(sink);
        fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(b"{\"t\":4,\"se")
            .unwrap();

        // Snapshot position (2, 1): keep (0,0)..(2,0), drop the rest.
        let (mut sink, reached) = JournalFileSink::resume(&dir, "run", 2, 1).unwrap();
        assert_eq!(reached, 3, "catch-up target is the last full record's tick");
        sink.on_events(&[EventRecord {
            t: 2,
            seq: 1,
            event: Event::MdsAdd { rank: 2 },
        }])
        .unwrap();
        sink.sync().unwrap();
        drop(sink);
        let text = fs::read_to_string(&path).unwrap();
        let stamps: Vec<(u64, u64)> = text.lines().map(|l| record_position(l).unwrap()).collect();
        assert_eq!(stamps, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]);

        // No prior journal: behaves like `create` with target 0.
        let (fresh, reached) = JournalFileSink::resume(&dir, "other", 5, 0).unwrap();
        assert_eq!(reached, 0);
        assert!(fresh.path().exists());
        drop(fresh);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn labels_are_sanitized() {
        assert_eq!(sanitize_label("My Run/7"), "my_run_7");
        assert_eq!(sanitize_label(""), "session");
        assert_eq!(sanitize_label("ok-label_2"), "ok-label_2");
    }
}
