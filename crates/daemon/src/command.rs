//! Operator commands and their tick-boundary application semantics.
//!
//! One `Command` is one operator intent; [`apply_command`] maps it onto
//! the simulation's control API. The crucial property is that application
//! happens **between ticks** and is identical whether the command came
//! from a scripted session replayed by the daemon loop, from the one-shot
//! runner, or from the interactive stdin source — that is what makes the
//! daemon journal byte-identical to the one-shot journal.

use lunule_faults::{parse_fault_kind, EventLine, FaultKind, SpecError};
use lunule_namespace::MdsRank;
use lunule_sim::{OpStream, Simulation};

/// One operator command, tick-agnostic.
#[derive(Clone, Debug)]
pub enum Command {
    /// Inject a fault (crash/limp/loss/stall) at the next tick start.
    Fault(FaultKind),
    /// Force a crashed rank back online at the next tick start.
    Recover(MdsRank),
    /// Grow the cluster by `n` fresh ranks.
    AddMds(u32),
    /// Drain a rank: fail its subtrees over and take it out of service.
    DrainMds(MdsRank),
    /// Attach `n` more clients from the session's deferred stream pool.
    AddClients(usize),
    /// Set a balancer tuning knob.
    SetKnob {
        /// Knob name (see `Balancer::set_knob`).
        name: String,
        /// New value.
        value: f64,
    },
    /// Emit a status snapshot to the status subscribers (journal-neutral).
    Status,
    /// Write an on-disk state snapshot now (journal-neutral; a no-op when
    /// the daemon has no snapshot directory configured).
    Snapshot,
    /// Stop advancing ticks until `Resume`/`Step` (journal-neutral).
    Pause,
    /// Resume free running after a pause (journal-neutral).
    Resume,
    /// While paused, advance exactly `n` ticks then pause again
    /// (journal-neutral beyond the ticks themselves).
    Step(u64),
    /// End the session: flush, export, exit the loop.
    Stop,
}

impl Command {
    /// True for pacing/control commands that never touch the simulation
    /// state or its journal (`Status`, `Pause`, `Resume`, `Step`) — the
    /// one-shot runner may ignore these and still produce the identical
    /// journal.
    pub fn is_journal_neutral(&self) -> bool {
        matches!(
            self,
            Command::Status
                | Command::Snapshot
                | Command::Pause
                | Command::Resume
                | Command::Step(_)
        )
    }
}

/// A command scheduled for a session tick.
#[derive(Clone, Debug)]
pub struct TimedCommand {
    /// Tick boundary the command fires at (applied before the tick runs).
    pub at_tick: u64,
    /// The command.
    pub command: Command,
}

/// Builds a command from a tokenized `kind@tick:field:...` event line.
/// Fault kinds go through [`parse_fault_kind`] — the exact code path CLI
/// `--faults` specs use — and the daemon's own commands are parsed here.
/// `max_ranks` bounds rank fields (pass the largest rank count the session
/// can reach, or the live cluster size for interactive use).
pub fn parse_command(line: &EventLine<'_>, max_ranks: usize) -> Result<Command, SpecError> {
    if let Some(kind) = parse_fault_kind(line, max_ranks)? {
        return Ok(Command::Fault(kind));
    }
    let cmd = match line.kind {
        "recover" => {
            line.expect_fields(1)?;
            Command::Recover(line.rank(0, max_ranks)?)
        }
        "addmds" => match line.fields.len() {
            0 => Command::AddMds(1),
            _ => {
                line.expect_fields(1)?;
                let n = line.num(0)?;
                if n == 0 || n > 1024 {
                    return Err(SpecError::new(format!(
                        "event '{}': addmds count must be in 1..=1024",
                        line.raw
                    )));
                }
                Command::AddMds(n as u32)
            }
        },
        "drain" => {
            line.expect_fields(1)?;
            Command::DrainMds(line.rank(0, max_ranks)?)
        }
        "clients" => {
            line.expect_fields(1)?;
            let n = line.num(0)?;
            if n == 0 {
                return Err(SpecError::new(format!(
                    "event '{}': clients count must be positive",
                    line.raw
                )));
            }
            Command::AddClients(n as usize)
        }
        "knob" => {
            line.expect_fields(2)?;
            let name = line.fields[0].to_string();
            if name.is_empty() {
                return Err(SpecError::new(format!(
                    "event '{}': empty knob name",
                    line.raw
                )));
            }
            Command::SetKnob {
                name,
                value: line.float(1)?,
            }
        }
        "status" => {
            line.expect_fields(0)?;
            Command::Status
        }
        "snapshot" => {
            line.expect_fields(0)?;
            Command::Snapshot
        }
        "pause" => {
            line.expect_fields(0)?;
            Command::Pause
        }
        "resume" => {
            line.expect_fields(0)?;
            Command::Resume
        }
        "step" => match line.fields.len() {
            0 => Command::Step(1),
            _ => {
                line.expect_fields(1)?;
                Command::Step(line.num(0)?.max(1))
            }
        },
        "stop" | "quit" => {
            line.expect_fields(0)?;
            Command::Stop
        }
        other => {
            return Err(SpecError::new(format!(
                "unknown command '{other}' (want a fault kind or recover/addmds/\
                 drain/clients/knob/status/snapshot/pause/resume/step/stop)"
            )))
        }
    };
    Ok(cmd)
}

/// What applying a command did, for operator feedback.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Applied {
    /// The command changed simulation state (or queued a change).
    Done,
    /// The command was valid but had no effect (unknown knob, rank not
    /// down, empty client pool...). Carries a short reason.
    Noop(&'static str),
}

/// Applies one state-changing command to the simulation at a tick
/// boundary. `pool` is the session's deferred client-stream pool that
/// `clients@T:N` commands draw from. Journal-neutral commands
/// (`Status`/`Pause`/`Resume`/`Step`/`Stop`) are the daemon loop's job and
/// return `Noop` here.
pub fn apply_command(
    sim: &mut Simulation,
    pool: &mut Vec<Box<dyn OpStream>>,
    command: &Command,
) -> Applied {
    match command {
        Command::Fault(kind) => {
            sim.queue_fault(*kind);
            Applied::Done
        }
        Command::Recover(rank) => {
            if sim.force_recover(*rank) {
                Applied::Done
            } else {
                Applied::Noop("rank is not down")
            }
        }
        Command::AddMds(n) => {
            for _ in 0..*n {
                sim.add_mds();
            }
            Applied::Done
        }
        Command::DrainMds(rank) => {
            if rank.index() >= sim.n_mds() {
                return Applied::Noop("no such rank");
            }
            if sim.is_rank_down(*rank) {
                return Applied::Noop("rank is down");
            }
            sim.drain_mds(*rank);
            Applied::Done
        }
        Command::AddClients(n) => {
            if pool.is_empty() {
                return Applied::Noop("client pool exhausted");
            }
            let take = (*n).min(pool.len());
            let batch: Vec<Box<dyn OpStream>> = pool.drain(..take).collect();
            sim.add_clients(batch);
            Applied::Done
        }
        Command::SetKnob { name, value } => {
            if sim.set_balancer_knob(name, *value) {
                Applied::Done
            } else {
                Applied::Noop("unknown knob")
            }
        }
        Command::Status
        | Command::Snapshot
        | Command::Pause
        | Command::Resume
        | Command::Step(_)
        | Command::Stop => Applied::Noop("control command"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lunule_faults::tokenize_event;

    fn cmd(text: &str) -> Command {
        parse_command(&tokenize_event(text).unwrap(), 8).unwrap()
    }

    #[test]
    fn commands_parse_from_event_lines() {
        assert!(matches!(
            cmd("crash@120:1:60"),
            Command::Fault(FaultKind::Crash { .. })
        ));
        assert!(matches!(cmd("recover@180:1"), Command::Recover(MdsRank(1))));
        assert!(matches!(cmd("addmds@300"), Command::AddMds(1)));
        assert!(matches!(cmd("addmds@300:3"), Command::AddMds(3)));
        assert!(matches!(cmd("drain@400:2"), Command::DrainMds(MdsRank(2))));
        assert!(matches!(cmd("clients@200:32"), Command::AddClients(32)));
        match cmd("knob@350:if_threshold:0.2") {
            Command::SetKnob { name, value } => {
                assert_eq!(name, "if_threshold");
                assert!((value - 0.2).abs() < 1e-12);
            }
            other => unreachable!("expected knob, got {other:?}"),
        }
        assert!(matches!(cmd("snapshot@50"), Command::Snapshot));
        assert!(matches!(cmd("pause@50"), Command::Pause));
        assert!(matches!(cmd("step@50:10"), Command::Step(10)));
        assert!(matches!(cmd("resume@60"), Command::Resume));
        assert!(matches!(cmd("status@70"), Command::Status));
        assert!(matches!(cmd("stop@99"), Command::Stop));
    }

    #[test]
    fn bad_commands_are_rejected() {
        let bad = [
            "warp@10",          // unknown kind
            "recover@10",       // missing rank
            "recover@10:99",    // rank out of range
            "clients@10:0",     // zero count
            "addmds@10:0",      // zero count
            "knob@10:only_one", // missing value
            "knob@10::1.0",     // empty name
            "pause@10:5",       // unexpected field
        ];
        for text in bad {
            let line = tokenize_event(text).unwrap();
            assert!(parse_command(&line, 8).is_err(), "{text} should fail");
        }
    }

    #[test]
    fn journal_neutral_classification() {
        assert!(cmd("pause@1").is_journal_neutral());
        assert!(cmd("snapshot@1").is_journal_neutral());
        assert!(cmd("status@1").is_journal_neutral());
        assert!(cmd("step@1:5").is_journal_neutral());
        assert!(!cmd("stop@1").is_journal_neutral());
        assert!(!cmd("addmds@1").is_journal_neutral());
        assert!(!cmd("crash@1:0:5").is_journal_neutral());
    }
}
