//! Compact CLI spec strings for fault schedules (`--faults <spec>`).
//!
//! Two forms are accepted:
//!
//! * **Scripted** — semicolon-separated events, each `kind@tick:rank:...`:
//!   - `crash@120:1:60` — crash rank 1 at tick 120, down for 60 ticks
//!   - `limp@200:2:0.5:100` — rank 2 at half capacity for 100 ticks
//!   - `loss@300:0:2` — drop rank 0's load report for 2 epochs
//!   - `stall@400:1:50` — stall rank 1's exports for 50 ticks
//! * **Seeded** — comma-separated `key=value` pairs drawing a random
//!   schedule: `seed=7,crashes=2,limps=1,losses=1,stalls=1`. Omitted keys
//!   use [`ChaosProfile::default`]; `seed` defaults to 0.
//!
//! The scripted form is recognised by the presence of `@`.
//!
//! The `kind@tick:field:...` event shape is shared with the
//! `lunule-daemon` session-script grammar (`.lds` files): both go through
//! [`tokenize_event`], and the four fault kinds parse through
//! [`parse_fault_kind`], so there is exactly one code path for fault
//! events whether they arrive on the CLI or in a session script.
//! [`format_spec`] renders a schedule back into the scripted form, and
//! `parse → format → parse` is the identity (see the round-trip tests).

use crate::plan::{seeded, ChaosProfile, FaultPlan};
use crate::schedule::{FaultEvent, FaultKind, FaultSchedule};
use lunule_namespace::MdsRank;

/// A malformed `--faults` spec string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    msg: String,
}

impl SpecError {
    /// Builds an error carrying a human-readable message. Public so the
    /// daemon's session parser (which extends this grammar) can report its
    /// own line-level errors through the same type.
    pub fn new(msg: impl Into<String>) -> Self {
        SpecError { msg: msg.into() }
    }

    /// The message alone, without the "bad fault spec" prefix that
    /// `Display` adds.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault spec: {}", self.msg)
    }
}

impl std::error::Error for SpecError {}

/// One tokenized `kind@tick:field:...` event, borrowed from its spec
/// string. The shared shape of fault-spec events and daemon session-script
/// commands: `kind` names the event, `at_tick` schedules it, and `fields`
/// carries the remaining `:`-separated arguments (everything after the
/// tick).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventLine<'a> {
    /// The event kind (`crash`, `limp`, … or a daemon command name).
    pub kind: &'a str,
    /// Simulated tick the event fires at.
    pub at_tick: u64,
    /// The `:`-separated fields after the tick.
    pub fields: Vec<&'a str>,
    /// The raw event text, for error messages.
    pub raw: &'a str,
}

impl<'a> EventLine<'a> {
    /// Fails unless exactly `want` fields follow the tick.
    pub fn expect_fields(&self, want: usize) -> Result<(), SpecError> {
        if self.fields.len() == want {
            Ok(())
        } else {
            Err(SpecError::new(format!(
                "event '{}': expected {want} field(s) after the tick, got {}",
                self.raw,
                self.fields.len()
            )))
        }
    }

    /// Field `i` parsed as `u64`.
    pub fn num(&self, i: usize) -> Result<u64, SpecError> {
        self.fields
            .get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| SpecError::new(format!("event '{}': bad field {i}", self.raw)))
    }

    /// Field `i` parsed as `f64`.
    pub fn float(&self, i: usize) -> Result<f64, SpecError> {
        self.fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| SpecError::new(format!("event '{}': bad float field {i}", self.raw)))
    }

    /// Field `i` parsed as an MDS rank, bounds-checked against `n_mds`.
    pub fn rank(&self, i: usize, n_mds: usize) -> Result<MdsRank, SpecError> {
        let raw = self.num(i)?;
        if raw as usize >= n_mds {
            return Err(SpecError::new(format!(
                "event '{}': rank {raw} outside cluster of {n_mds}",
                self.raw
            )));
        }
        Ok(MdsRank(raw as u16))
    }
}

/// Tokenizes one `kind@tick:field:...` event string. This is the single
/// tokenizer behind fault specs and daemon session scripts.
pub fn tokenize_event(part: &str) -> Result<EventLine<'_>, SpecError> {
    let part = part.trim();
    let (kind, rest) = part
        .split_once('@')
        .ok_or_else(|| SpecError::new(format!("event '{part}' missing '@'")))?;
    let mut fields: Vec<&str> = rest.split(':').collect();
    let tick_text = fields.remove(0);
    let at_tick = tick_text
        .trim()
        .parse::<u64>()
        .map_err(|_| SpecError::new(format!("event '{part}': bad tick '{tick_text}'")))?;
    Ok(EventLine {
        kind: kind.trim(),
        at_tick,
        fields,
        raw: part,
    })
}

/// Parses the four fault kinds out of a tokenized event. Returns
/// `Ok(None)` when `line.kind` is not a fault kind, so grammars that
/// extend this one (the daemon session scripts) can fall through to their
/// own commands; arity and field errors on a *known* kind still fail.
pub fn parse_fault_kind(
    line: &EventLine<'_>,
    n_mds: usize,
) -> Result<Option<FaultKind>, SpecError> {
    let kind = match line.kind {
        "crash" => {
            line.expect_fields(2)?;
            FaultKind::Crash {
                rank: line.rank(0, n_mds)?,
                down_ticks: line.num(1)?,
            }
        }
        "limp" => {
            line.expect_fields(3)?;
            let factor = line.float(1)?;
            FaultKind::Limp {
                rank: line.rank(0, n_mds)?,
                factor,
                duration_ticks: line.num(2)?,
            }
        }
        "loss" => {
            line.expect_fields(2)?;
            FaultKind::ReportLoss {
                rank: line.rank(0, n_mds)?,
                epochs: line.num(1)?,
            }
        }
        "stall" => {
            line.expect_fields(2)?;
            FaultKind::MigrationStall {
                rank: line.rank(0, n_mds)?,
                duration_ticks: line.num(1)?,
            }
        }
        _ => return Ok(None),
    };
    Ok(Some(kind))
}

/// Renders one fault event in the scripted spec form, the exact inverse of
/// [`tokenize_event`] + [`parse_fault_kind`].
pub fn format_fault_event(event: &FaultEvent) -> String {
    let t = event.at_tick;
    match event.kind {
        FaultKind::Crash { rank, down_ticks } => format!("crash@{t}:{}:{down_ticks}", rank.0),
        FaultKind::Limp {
            rank,
            factor,
            duration_ticks,
        } => format!("limp@{t}:{}:{factor}:{duration_ticks}", rank.0),
        FaultKind::ReportLoss { rank, epochs } => format!("loss@{t}:{}:{epochs}", rank.0),
        FaultKind::MigrationStall {
            rank,
            duration_ticks,
        } => format!("stall@{t}:{}:{duration_ticks}", rank.0),
    }
}

/// Renders a whole schedule as a scripted spec string
/// (`crash@120:1:60;limp@200:2:0.5:100;...`). `parse_spec` of the result
/// reproduces the schedule exactly.
pub fn format_spec(schedule: &FaultSchedule) -> String {
    schedule
        .events()
        .iter()
        .map(format_fault_event)
        .collect::<Vec<_>>()
        .join(";")
}

/// Parses a `--faults` spec (see module docs) into a schedule.
///
/// `n_mds` bounds the ranks a scripted event may target and sizes the
/// seeded draw; `duration_ticks` bounds scripted ticks and scales seeded
/// event times.
pub fn parse_spec(
    spec: &str,
    n_mds: usize,
    duration_ticks: u64,
) -> Result<FaultSchedule, SpecError> {
    let spec = spec.trim();
    if spec.is_empty() {
        return Ok(FaultSchedule::empty());
    }
    if spec.contains('@') {
        parse_scripted(spec, n_mds, duration_ticks)
    } else {
        parse_seeded(spec, n_mds, duration_ticks)
    }
}

fn parse_scripted(
    spec: &str,
    n_mds: usize,
    duration_ticks: u64,
) -> Result<FaultSchedule, SpecError> {
    let mut plan = FaultPlan::new();
    for part in spec.split(';').filter(|p| !p.trim().is_empty()) {
        let line = tokenize_event(part)?;
        if line.at_tick >= duration_ticks {
            return Err(SpecError::new(format!(
                "event '{}': tick {} beyond run of {duration_ticks} ticks",
                line.raw, line.at_tick
            )));
        }
        let Some(kind) = parse_fault_kind(&line, n_mds)? else {
            return Err(SpecError::new(format!(
                "unknown fault kind '{}' (want crash/limp/loss/stall)",
                line.kind
            )));
        };
        plan = plan.event(line.at_tick, kind);
    }
    Ok(plan.build())
}

fn parse_seeded(spec: &str, n_mds: usize, duration_ticks: u64) -> Result<FaultSchedule, SpecError> {
    let mut seed = 0u64;
    let mut profile = ChaosProfile::default();
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let part = part.trim();
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| SpecError::new(format!("'{part}' is not key=value")))?;
        let parsed: u64 = value
            .parse()
            .map_err(|_| SpecError::new(format!("'{part}': bad value")))?;
        match key.trim() {
            "seed" => seed = parsed,
            "crashes" => profile.crashes = parsed as usize,
            "limps" => profile.limps = parsed as usize,
            "losses" => profile.report_losses = parsed as usize,
            "stalls" => profile.migration_stalls = parsed as usize,
            other => {
                return Err(SpecError::new(format!(
                    "unknown key '{other}' (want seed/crashes/limps/losses/stalls)"
                )))
            }
        }
    }
    Ok(seeded(seed, n_mds, duration_ticks, &profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FaultKind;

    #[test]
    fn scripted_spec_round_trips() {
        let s = parse_spec(
            "crash@120:1:60;limp@200:2:0.5:100;loss@30:0:2;stall@40:1:50",
            3,
            400,
        )
        .unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.events()[0].at_tick, 30);
        match s.events()[3].kind {
            FaultKind::Limp {
                rank,
                factor,
                duration_ticks,
            } => {
                assert_eq!(rank, MdsRank(2));
                assert!((factor - 0.5).abs() < 1e-12);
                assert_eq!(duration_ticks, 100);
            }
            other => unreachable!("tick 200 is the limp, got {other:?}"),
        }
    }

    #[test]
    fn seeded_spec_is_deterministic() {
        let a = parse_spec("seed=7,crashes=3", 4, 500).unwrap();
        let b = parse_spec("seed=7,crashes=3", 4, 500).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a.events()
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::Crash { .. }))
                .count(),
            3
        );
    }

    #[test]
    fn empty_spec_is_fault_free() {
        assert!(parse_spec("", 3, 100).unwrap().is_empty());
        assert!(parse_spec("  ", 3, 100).unwrap().is_empty());
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(parse_spec("crash@10:9:5", 3, 100).is_err(), "rank range");
        assert!(parse_spec("crash@999:0:5", 3, 100).is_err(), "tick range");
        assert!(parse_spec("crash@10:0", 3, 100).is_err(), "arity");
        assert!(parse_spec("warp@10:0:5", 3, 100).is_err(), "kind");
        assert!(parse_spec("limp@10:0:high:5", 3, 100).is_err(), "factor");
        assert!(parse_spec("frequency=11", 3, 100).is_err(), "seeded key");
        assert!(parse_spec("seed=banana", 3, 100).is_err(), "seeded value");
    }

    #[test]
    fn tokenizer_splits_kind_tick_fields() {
        let line = tokenize_event(" limp@200:2:0.5:100 ").unwrap();
        assert_eq!(line.kind, "limp");
        assert_eq!(line.at_tick, 200);
        assert_eq!(line.fields, vec!["2", "0.5", "100"]);
        assert!(tokenize_event("noat").is_err());
        assert!(tokenize_event("crash@x:1:2").is_err(), "bad tick");
        // Unknown kinds tokenize fine — extension grammars own them.
        let other = tokenize_event("addmds@300").unwrap();
        assert_eq!(other.kind, "addmds");
        assert!(other.fields.is_empty());
        assert!(parse_fault_kind(&other, 3).unwrap().is_none());
    }

    #[test]
    fn format_spec_round_trips_byte_exact() {
        let spec = "loss@30:0:2;stall@40:1:50;crash@120:1:60;limp@200:2:0.5:100";
        let schedule = parse_spec(spec, 3, 400).unwrap();
        let formatted = format_spec(&schedule);
        // The schedule is tick-sorted, so the canonical form is too.
        assert_eq!(formatted, spec);
        let back = parse_spec(&formatted, 3, 400).unwrap();
        assert_eq!(back, schedule);
    }

    #[test]
    fn format_of_seeded_schedule_reparses_identically() {
        let schedule = parse_spec("seed=11,crashes=2,limps=1,stalls=1", 5, 800).unwrap();
        let formatted = format_spec(&schedule);
        let back = parse_spec(&formatted, 5, 800).unwrap();
        assert_eq!(back, schedule, "seeded -> scripted -> schedule identity");
    }
}
