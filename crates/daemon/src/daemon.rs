//! The daemon loop: poll commands, advance one tick, publish events.
//!
//! Every loop iteration is the same tick-boundary sequence:
//!
//! 1. poll the [`CommandSource`] for commands due at the current tick and
//!    apply them (state-changing ones through
//!    [`crate::command::apply_command`], pacing ones to the loop state);
//! 2. advance the simulation one tick — unless paused with no step budget;
//! 3. drain newly journaled telemetry events to every subscriber, plus a
//!    status snapshot every `status_every` ticks.
//!
//! Because commands apply at the *same* boundaries the one-shot runner
//! uses, and pause/step/resume only decide whether step 2 happens (never
//! what it computes), a scripted session through this loop journals
//! byte-identically to [`crate::oneshot::run_oneshot`]. The loop itself
//! never reads the wall clock; pacing lives behind the [`Pacer`] passed to
//! [`Daemon::run`].

use crate::bus::{StatusSnapshot, Subscriber};
use crate::command::{apply_command, Command};
use crate::pacing::Pacer;
use crate::source::CommandSource;
use lunule_sim::{OpStream, RunResult, Simulation};
use std::io;
use std::path::PathBuf;

/// Loop state: whether ticks advance freely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunState {
    /// Advancing one tick per iteration.
    Running,
    /// Holding; only `step` commands advance ticks.
    Paused,
    /// Finished (duration reached, all clients done, or `stop` command).
    Stopped,
}

/// The long-lived service: simulation + command source + subscribers.
pub struct Daemon<S: CommandSource> {
    sim: Simulation,
    /// Deferred client streams `clients@T:N` commands draw from.
    pool: Vec<Box<dyn OpStream>>,
    source: S,
    subscribers: Vec<Box<dyn Subscriber>>,
    /// How much of the telemetry journal has been streamed out.
    cursor: usize,
    state: RunState,
    /// Ticks still owed to `step` commands while paused.
    step_budget: u64,
    /// Status snapshot cadence in ticks (0 = only on `status` commands).
    status_every: u64,
    /// Where on-disk state snapshots go (`None` = snapshotting off).
    snapshot_dir: Option<PathBuf>,
    /// State snapshot cadence in ticks (0 = only on `snapshot` commands).
    snapshot_every: u64,
    /// Tick of the most recent snapshot written this session.
    last_snapshot_tick: Option<u64>,
    /// Snapshots written this session.
    snapshot_count: u64,
}

impl<S: CommandSource> Daemon<S> {
    /// Wraps a built session (see [`crate::Session::build`]).
    pub fn new(sim: Simulation, pool: Vec<Box<dyn OpStream>>, source: S) -> Self {
        Daemon {
            sim,
            pool,
            source,
            subscribers: Vec::new(),
            cursor: 0,
            state: RunState::Running,
            step_budget: 0,
            status_every: 0,
            snapshot_dir: None,
            snapshot_every: 0,
            last_snapshot_tick: None,
            snapshot_count: 0,
        }
    }

    /// Attaches a subscriber to the event bus.
    pub fn subscribe(&mut self, subscriber: Box<dyn Subscriber>) {
        self.subscribers.push(subscriber);
    }

    /// Emits a status snapshot every `ticks` ticks (0 disables periodic
    /// status; `status` commands always work).
    pub fn set_status_every(&mut self, ticks: u64) {
        self.status_every = ticks;
    }

    /// Enables on-disk state snapshots into `dir`: one every `every` ticks
    /// (0 = only when a `snapshot` command asks), written crash-safely via
    /// `lunule_snapshot::write_atomic` after the journal sinks have been
    /// fsynced — so a kill at *any* instant leaves a snapshot whose covered
    /// journal prefix is already durable.
    pub fn set_snapshots(&mut self, dir: PathBuf, every: u64) {
        self.snapshot_dir = Some(dir);
        self.snapshot_every = every;
    }

    /// Current loop state.
    pub fn state(&self) -> RunState {
        self.state
    }

    /// The simulation under management.
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    fn publish_events(&mut self) -> io::Result<()> {
        let (batch, cursor) = self.sim.telemetry().events_since(self.cursor);
        self.cursor = cursor;
        if batch.is_empty() {
            return Ok(());
        }
        for sub in &mut self.subscribers {
            sub.on_events(&batch)?;
        }
        Ok(())
    }

    fn publish_status(&mut self) -> io::Result<()> {
        let mut status = StatusSnapshot::capture(&self.sim, self.state == RunState::Paused);
        status.last_snapshot_tick = self.last_snapshot_tick;
        status.snapshots = self.snapshot_count;
        for sub in &mut self.subscribers {
            sub.on_status(&status)?;
        }
        Ok(())
    }

    /// Writes a state snapshot now (between ticks). Journal durability
    /// first: every record the snapshot covers is flushed and fsynced
    /// before the snapshot file appears, so a crash straddling the two
    /// writes can never leave a snapshot pointing past the journal.
    /// Silently a no-op without a configured snapshot directory.
    fn take_snapshot(&mut self) -> io::Result<()> {
        let Some(dir) = self.snapshot_dir.clone() else {
            return Ok(());
        };
        for sub in &mut self.subscribers {
            sub.sync()?;
        }
        let snap = self.sim.snapshot();
        let path = dir.join(lunule_snapshot::snapshot_filename(snap.tick));
        lunule_snapshot::write_atomic(&path, &snap).map_err(|e| io::Error::other(e.to_string()))?;
        self.last_snapshot_tick = Some(snap.tick);
        self.snapshot_count += 1;
        Ok(())
    }

    /// One loop iteration: poll + apply commands, maybe advance a tick,
    /// publish. Returns `false` once the session is over.
    pub fn tick_once(&mut self) -> io::Result<bool> {
        let tick = self.sim.now();
        let paused = self.state == RunState::Paused;
        let commands = self.source.poll(tick, self.sim.n_mds(), paused);
        for command in commands {
            match command {
                Command::Pause => {
                    self.state = RunState::Paused;
                    self.step_budget = 0;
                }
                Command::Resume => {
                    if self.state == RunState::Paused {
                        self.state = RunState::Running;
                        self.step_budget = 0;
                    }
                }
                Command::Step(n) => {
                    if self.state == RunState::Paused {
                        self.step_budget = self.step_budget.saturating_add(n);
                    }
                }
                Command::Status => self.publish_status()?,
                Command::Snapshot => self.take_snapshot()?,
                Command::Stop => {
                    self.state = RunState::Stopped;
                }
                other => {
                    apply_command(&mut self.sim, &mut self.pool, &other);
                }
            }
            if self.state == RunState::Stopped {
                break;
            }
        }
        if self.state == RunState::Stopped {
            return Ok(false);
        }

        let advance = match self.state {
            RunState::Running => true,
            RunState::Paused => self.step_budget > 0,
            RunState::Stopped => false,
        };
        if advance {
            if self.state == RunState::Paused {
                self.step_budget -= 1;
            }
            let advanced = self.sim.step();
            self.publish_events()?;
            if !advanced {
                self.state = RunState::Stopped;
                return Ok(false);
            }
            if self.status_every > 0 && self.sim.now().is_multiple_of(self.status_every) {
                self.publish_status()?;
            }
            if self.snapshot_every > 0 && self.sim.now().is_multiple_of(self.snapshot_every) {
                self.take_snapshot()?;
            }
        }
        Ok(true)
    }

    /// Runs the session to completion under `pacer`. The pacer is told
    /// whether the loop is idle (paused with nothing to do) so it can
    /// sleep instead of spin; at max speed it does nothing while running.
    pub fn run(&mut self, pacer: &mut dyn Pacer) -> io::Result<()> {
        loop {
            if !self.tick_once()? {
                return Ok(());
            }
            let idle = self.state == RunState::Paused && self.step_budget == 0;
            pacer.observe_tick(self.sim.now());
            pacer.pace(idle);
        }
    }

    /// Ends the session: finalises the simulation (flushing a partial
    /// epoch into the journal), streams the tail of the journal to every
    /// subscriber, flushes them, and returns the run results.
    pub fn finish(self) -> io::Result<RunResult> {
        let Daemon {
            sim,
            mut subscribers,
            cursor,
            ..
        } = self;
        let telemetry = sim.telemetry().clone();
        let result = sim.finish();
        let (tail, _) = telemetry.events_since(cursor);
        for sub in &mut subscribers {
            if !tail.is_empty() {
                sub.on_events(&tail)?;
            }
            // Durable flush: a daemon ending via `stop` leaves its journal
            // fsynced, not just pushed into the OS page cache.
            sub.sync()?;
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::MemorySink;
    use crate::pacing::MaxSpeed;
    use crate::session::Session;
    use crate::source::{QueueSource, ScriptSource};
    use lunule_telemetry::Telemetry;

    fn tiny_session() -> Session {
        Session::parse(
            "seed=3\nmds=2\nduration=40\nepoch=10\nclients=2\nscale=0.01\n\
             workload=zipf\nbalancer=off\ncapacity=100\n",
        )
        .unwrap()
    }

    #[test]
    fn daemon_runs_a_session_to_completion() {
        let session = tiny_session();
        let (sim, pool) = session.build(Telemetry::enabled());
        let mut daemon = Daemon::new(sim, pool, ScriptSource::new(Vec::new()));
        daemon.subscribe(Box::new(MemorySink::default()));
        daemon.run(&mut MaxSpeed).unwrap();
        assert_eq!(daemon.state(), RunState::Stopped);
        assert_eq!(daemon.sim().now(), 40);
        let result = daemon.finish().unwrap();
        assert_eq!(result.duration_secs, 40);
    }

    #[test]
    fn pause_holds_the_clock_and_step_advances_it() {
        let session = tiny_session();
        let (sim, pool) = session.build(Telemetry::enabled());
        let mut source = QueueSource::new();
        source.push(Command::Pause);
        let mut daemon = Daemon::new(sim, pool, source);
        assert!(daemon.tick_once().unwrap());
        assert_eq!(daemon.state(), RunState::Paused);
        let held = daemon.sim().now();
        for _ in 0..5 {
            assert!(daemon.tick_once().unwrap());
        }
        assert_eq!(daemon.sim().now(), held, "paused clock must hold");
        // Stepping is only legal while paused and advances exactly n.
        // (QueueSource drained, so push through a fresh command.)
        let mut daemon = {
            let session = tiny_session();
            let (sim, pool) = session.build(Telemetry::enabled());
            let mut source = QueueSource::new();
            source.push(Command::Pause);
            source.push(Command::Step(3));
            Daemon::new(sim, pool, source)
        };
        assert!(daemon.tick_once().unwrap()); // pause + step(3), advances 1
        assert!(daemon.tick_once().unwrap()); // budget 2 -> 1
        assert!(daemon.tick_once().unwrap()); // budget 1 -> 0
        assert_eq!(daemon.sim().now(), 3);
        assert!(daemon.tick_once().unwrap()); // budget exhausted: holds
        assert_eq!(daemon.sim().now(), 3);
        assert_eq!(daemon.state(), RunState::Paused);
    }

    #[test]
    fn stop_command_ends_the_loop() {
        let session = tiny_session();
        let (sim, pool) = session.build(Telemetry::enabled());
        let mut source = QueueSource::new();
        source.push(Command::Stop);
        let mut daemon = Daemon::new(sim, pool, source);
        assert!(!daemon.tick_once().unwrap());
        assert_eq!(daemon.sim().now(), 0, "stop fires before the tick runs");
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lunule-daemon-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_command_writes_a_file_and_status_reports_it() {
        let session = tiny_session();
        let dir = tmpdir("cmd");
        let (sim, pool) = session.build(Telemetry::enabled());
        let mut source = QueueSource::new();
        source.push(Command::Snapshot);
        source.push(Command::Status);
        let mut daemon = Daemon::new(sim, pool, source);
        daemon.set_snapshots(dir.clone(), 0);
        daemon.subscribe(Box::new(MemorySink::default()));
        assert!(daemon.tick_once().unwrap());
        assert_eq!(daemon.snapshot_count, 1);
        assert_eq!(daemon.last_snapshot_tick, Some(0));
        let path = dir.join(lunule_snapshot::snapshot_filename(0));
        let snap = lunule_snapshot::read(&path).unwrap();
        assert_eq!(snap.tick, 0);
        assert_eq!(snap.seed, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn periodic_snapshots_follow_the_cadence() {
        let session = tiny_session();
        let dir = tmpdir("cadence");
        let (sim, pool) = session.build(Telemetry::enabled());
        let mut daemon = Daemon::new(sim, pool, ScriptSource::new(Vec::new()));
        daemon.set_snapshots(dir.clone(), 15);
        daemon.run(&mut MaxSpeed).unwrap();
        // duration=40 with a snapshot every 15 ticks: ticks 15 and 30.
        assert_eq!(daemon.snapshot_count, 2);
        assert_eq!(daemon.last_snapshot_tick, Some(30));
        let mut status = crate::bus::StatusSnapshot::capture(daemon.sim(), false);
        status.last_snapshot_tick = daemon.last_snapshot_tick;
        status.snapshots = daemon.snapshot_count;
        assert!(status.to_json_line().contains(r#""last_snapshot_tick":30"#));
        let _ = daemon.finish().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_and_restore_resumes_byte_identically() {
        // State changes on both sides of the snapshot: a crash fault and a
        // client attach before it, an MDS add after it.
        let script = "seed=11\nmds=3\nduration=60\nepoch=10\nclients=2\nscale=0.01\n\
                      workload=zipf\nbalancer=lunule\ncapacity=200\n\
                      crash@8:1:10\nclients@5:2\naddmds@30\n";
        let session = Session::parse(script).unwrap();

        // Reference: the uninterrupted daemon journal.
        let reference = {
            let (sim, pool) = session.build(Telemetry::enabled());
            let mut daemon = Daemon::new(sim, pool, ScriptSource::new(session.commands.clone()));
            daemon.run(&mut MaxSpeed).unwrap();
            let telemetry = daemon.sim().telemetry().clone();
            let _ = daemon.finish().unwrap();
            lunule_telemetry::events_jsonl(&telemetry.snapshot().unwrap_or_default())
        };

        // Interrupted run: snapshot at tick 17, "killed" (dropped without
        // finish) at tick 20.
        let dir = tmpdir("restore");
        let pre_all = {
            let (sim, pool) = session.build(Telemetry::enabled());
            let mut daemon = Daemon::new(sim, pool, ScriptSource::new(session.commands.clone()));
            daemon.set_snapshots(dir.clone(), 17);
            for _ in 0..20 {
                assert!(daemon.tick_once().unwrap());
            }
            assert_eq!(daemon.snapshot_count, 1);
            daemon
                .sim()
                .telemetry()
                .snapshot()
                .unwrap_or_default()
                .events
        };

        // Recover: newest valid snapshot for this session's digest.
        let (_, snap) = lunule_snapshot::find_latest_valid(&dir, Some(session.digest()))
            .unwrap()
            .unwrap();
        assert_eq!(snap.tick, 17);
        let telemetry = Telemetry::enabled();
        let (sim, pool) = session.build_restored(telemetry.clone(), &snap).unwrap();
        assert_eq!(sim.now(), 17);
        assert_eq!(sim.n_clients(), 4, "clients@5 is inside the snapshot");
        assert!(pool.is_empty());
        let (clock, seq) = sim.telemetry().clock_position();
        let mut source = ScriptSource::new(session.commands.clone());
        source.skip_until(snap.tick);
        let mut daemon = Daemon::new(sim, pool, source);
        daemon.run(&mut MaxSpeed).unwrap();
        assert_eq!(daemon.sim().now(), 60);
        assert_eq!(daemon.sim().n_mds(), 4, "addmds@30 fires after restore");
        let _ = daemon.finish().unwrap();
        let post = telemetry.snapshot().unwrap_or_default().events;

        // Stitch: journal records the snapshot covers, then the restored
        // run's journal — byte-identical to the uninterrupted reference.
        let stitched: Vec<_> = pre_all
            .into_iter()
            .filter(|r| (r.t, r.seq) < (clock, seq))
            .chain(post)
            .collect();
        let stitched_jsonl = lunule_telemetry::events_jsonl(&lunule_telemetry::Snapshot {
            events: stitched,
            ..lunule_telemetry::Snapshot::default()
        });
        assert_eq!(stitched_jsonl, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_commands_do_not_touch_the_journal() {
        let run = |with_status: bool| {
            let session = tiny_session();
            let (sim, pool) = session.build(Telemetry::enabled());
            let mut source = QueueSource::new();
            if with_status {
                source.push(Command::Status);
            }
            let mut daemon = Daemon::new(sim, pool, source);
            daemon.subscribe(Box::new(MemorySink::default()));
            daemon.run(&mut MaxSpeed).unwrap();
            let telemetry = daemon.sim().telemetry().clone();
            let _ = daemon.finish().unwrap();
            let (events, _) = telemetry.events_since(0);
            events
        };
        assert_eq!(run(false), run(true));
    }
}
