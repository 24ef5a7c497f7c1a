//! Command sources: where operator commands come from each tick.
//!
//! The daemon polls its [`CommandSource`] once per loop iteration, at the
//! boundary *before* a tick runs. Sources are non-blocking: a poll returns
//! whatever is due and nothing else. Scripted sources replay a session's
//! [`TimedCommand`]s at their scheduled ticks; the interactive source
//! drains lines an input thread has buffered (see
//! [`crate::pacing::spawn_stdin_reader`]) and parses them with
//! [`parse_interactive`].

use crate::command::{parse_command, Command, TimedCommand};
use lunule_faults::{EventLine, SpecError};
use std::collections::VecDeque;
use std::io::Write;
use std::sync::mpsc::Receiver;

/// A non-blocking feed of operator commands.
pub trait CommandSource {
    /// Returns every command due at or before `tick`, in order. `n_mds`
    /// is the live rank count (for bounds-checking interactive input);
    /// `paused` tells interactive sources the loop is holding.
    fn poll(&mut self, tick: u64, n_mds: usize, paused: bool) -> Vec<Command>;
}

impl CommandSource for Box<dyn CommandSource> {
    fn poll(&mut self, tick: u64, n_mds: usize, paused: bool) -> Vec<Command> {
        self.as_mut().poll(tick, n_mds, paused)
    }
}

/// Replays a session script's timed commands: each poll returns the
/// commands whose tick has been reached, exactly once.
pub struct ScriptSource {
    commands: Vec<TimedCommand>,
    cursor: usize,
}

impl ScriptSource {
    /// Builds a source over tick-sorted commands (session order).
    pub fn new(commands: Vec<TimedCommand>) -> Self {
        ScriptSource {
            commands,
            cursor: 0,
        }
    }

    /// Skips every command an interrupted run already applied: a restored
    /// simulation at tick `T` has executed the boundary commands of ticks
    /// `0..T-1` (their effects are inside the snapshot), while commands at
    /// `T` itself have not fired yet. Re-delivering the earlier ones would
    /// double-apply state changes and corrupt the restore.
    pub fn skip_until(&mut self, tick: u64) {
        while self.cursor < self.commands.len() && self.commands[self.cursor].at_tick < tick {
            self.cursor += 1;
        }
    }
}

impl CommandSource for ScriptSource {
    fn poll(&mut self, tick: u64, _n_mds: usize, paused: bool) -> Vec<Command> {
        let mut out = Vec::new();
        while self.cursor < self.commands.len() && self.commands[self.cursor].at_tick <= tick {
            out.push(self.commands[self.cursor].command.clone());
            self.cursor += 1;
        }
        // A paused loop freezes the clock, so a later-tick `resume` (or
        // `step`/`status`/`stop`) would never come due — deliver the next
        // pending control command early, one per poll. This is safe for
        // the journal: control commands are journal-neutral (or end the
        // run), and state-changing commands still wait for their tick.
        if paused && out.is_empty() {
            if let Some(tc) = self.commands.get(self.cursor) {
                if tc.command.is_journal_neutral() || matches!(tc.command, Command::Stop) {
                    out.push(tc.command.clone());
                    self.cursor += 1;
                }
            }
        }
        out
    }
}

/// An in-memory queue source for tests and embedding: every poll drains
/// whatever was pushed since the last one.
#[derive(Default)]
pub struct QueueSource {
    queue: VecDeque<Command>,
}

impl QueueSource {
    /// An empty queue.
    pub fn new() -> Self {
        QueueSource::default()
    }

    /// Enqueues a command for the next poll.
    pub fn push(&mut self, command: Command) {
        self.queue.push_back(command);
    }
}

impl CommandSource for QueueSource {
    fn poll(&mut self, _tick: u64, _n_mds: usize, _paused: bool) -> Vec<Command> {
        self.queue.drain(..).collect()
    }
}

/// Chains two sources: script first, then interactive — so an operator can
/// watch a scripted session and intervene.
pub struct CompositeSource<A: CommandSource, B: CommandSource>(pub A, pub B);

impl<A: CommandSource, B: CommandSource> CommandSource for CompositeSource<A, B> {
    fn poll(&mut self, tick: u64, n_mds: usize, paused: bool) -> Vec<Command> {
        let mut out = self.0.poll(tick, n_mds, paused);
        out.extend(self.1.poll(tick, n_mds, paused));
        out
    }
}

/// Parses one interactive line: the session-script command grammar without
/// the `@tick` — `crash:1:60`, `recover:1`, `addmds`, `addmds:2`,
/// `drain:2`, `clients:16`, `knob:if_threshold:0.2`, `status`, `pause`,
/// `resume`, `step`, `step:10`, `stop`/`quit`. The command takes effect at
/// the next tick boundary.
pub fn parse_interactive(line: &str, n_mds: usize) -> Result<Command, SpecError> {
    let line = line.trim();
    if line.is_empty() {
        return Err(SpecError::new("empty command"));
    }
    let mut parts = line.split(':');
    let kind = parts.next().unwrap_or("").trim();
    let fields: Vec<&str> = parts.map(str::trim).collect();
    let event = EventLine {
        kind,
        at_tick: 0,
        fields,
        raw: line,
    };
    parse_command(&event, n_mds)
}

/// The interactive stdin source: drains lines buffered by the reader
/// thread (wall-clock side, see [`crate::pacing`]) and parses each with
/// [`parse_interactive`]. Malformed lines are reported on stderr and
/// skipped — an operator typo must not take the daemon down.
pub struct StdinSource {
    lines: Receiver<String>,
}

impl StdinSource {
    /// Wraps a channel of input lines (one per line read).
    pub fn new(lines: Receiver<String>) -> Self {
        StdinSource { lines }
    }
}

impl CommandSource for StdinSource {
    fn poll(&mut self, _tick: u64, n_mds: usize, _paused: bool) -> Vec<Command> {
        let mut out = Vec::new();
        while let Ok(line) = self.lines.try_recv() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_interactive(&line, n_mds) {
                Ok(cmd) => out.push(cmd),
                Err(e) => {
                    let _ = writeln!(std::io::stderr(), "lunule-daemon: {e}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lunule_faults::FaultKind;
    use lunule_namespace::MdsRank;

    #[test]
    fn script_source_fires_each_command_once_in_order() {
        let mut src = ScriptSource::new(vec![
            TimedCommand {
                at_tick: 5,
                command: Command::AddMds(1),
            },
            TimedCommand {
                at_tick: 5,
                command: Command::Status,
            },
            TimedCommand {
                at_tick: 9,
                command: Command::Stop,
            },
        ]);
        assert!(src.poll(4, 2, false).is_empty());
        let due = src.poll(5, 2, false);
        assert_eq!(due.len(), 2);
        assert!(matches!(due[0], Command::AddMds(1)));
        assert!(matches!(due[1], Command::Status));
        assert!(src.poll(5, 2, false).is_empty(), "no double fire");
        assert!(src.cursor < src.commands.len());
        // A skipped-ahead clock still delivers everything due.
        let late = src.poll(50, 2, false);
        assert_eq!(late.len(), 1);
        assert_eq!(src.cursor, src.commands.len());
    }

    #[test]
    fn skip_until_drops_already_applied_commands() {
        let mut src = ScriptSource::new(vec![
            TimedCommand {
                at_tick: 3,
                command: Command::AddMds(1),
            },
            TimedCommand {
                at_tick: 7,
                command: Command::AddClients(2),
            },
            TimedCommand {
                at_tick: 9,
                command: Command::Stop,
            },
        ]);
        // Restored at tick 7: the tick-3 command is inside the snapshot,
        // the tick-7 command has not fired yet.
        src.skip_until(7);
        let due = src.poll(7, 2, false);
        assert_eq!(due.len(), 1);
        assert!(matches!(due[0], Command::AddClients(2)));
        assert!(src.cursor < src.commands.len());
    }

    #[test]
    fn queue_source_drains_on_poll() {
        let mut q = QueueSource::new();
        q.push(Command::Pause);
        q.push(Command::Step(3));
        assert_eq!(q.poll(0, 1, false).len(), 2);
        assert!(q.poll(0, 1, false).is_empty());
    }

    #[test]
    fn interactive_lines_parse_without_ticks() {
        assert!(matches!(
            parse_interactive("crash:1:60", 4).unwrap(),
            Command::Fault(FaultKind::Crash { .. })
        ));
        assert!(matches!(
            parse_interactive("recover:1", 4).unwrap(),
            Command::Recover(MdsRank(1))
        ));
        assert!(matches!(
            parse_interactive("addmds", 4).unwrap(),
            Command::AddMds(1)
        ));
        assert!(matches!(
            parse_interactive(" step:10 ", 4).unwrap(),
            Command::Step(10)
        ));
        assert!(matches!(
            parse_interactive("quit", 4).unwrap(),
            Command::Stop
        ));
        assert!(parse_interactive("", 4).is_err());
        assert!(parse_interactive("crash:9:60", 4).is_err(), "rank bound");
        assert!(parse_interactive("fly:me", 4).is_err());
    }

    #[test]
    fn composite_chains_in_order() {
        let script = ScriptSource::new(vec![TimedCommand {
            at_tick: 0,
            command: Command::Pause,
        }]);
        let mut queue = QueueSource::new();
        queue.push(Command::Resume);
        let mut both = CompositeSource(script, queue);
        let cmds = both.poll(0, 1, false);
        assert_eq!(cmds.len(), 2);
        assert!(matches!(cmds[0], Command::Pause));
        assert!(matches!(cmds[1], Command::Resume));
    }
}
