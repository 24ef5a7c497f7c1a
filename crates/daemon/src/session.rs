//! `.lds` session scripts: a whole daemon run in one file.
//!
//! A session script is line-oriented. `#` starts a comment, blank lines
//! are skipped, and the remaining lines are either **headers** or
//! **events**:
//!
//! ```text
//! # headers: key=value, any order, all optional
//! seed=42
//! mds=4
//! duration=400        # ticks
//! epoch=20            # balance epoch length, ticks
//! clients=32          # initial clients
//! scale=0.05          # workload scale (0, 1]
//! workload=zipf       # cnn | nlp | web | zipf | md | md-full | mixed
//! balancer=lunule     # lunule | light | vanilla | greedy | dirhash | off
//! capacity=1000       # per-MDS capacity (IOPS)
//!
//! # events: kind@tick:field:...  — the lunule-faults spec grammar plus
//! # the daemon's control commands
//! crash@120:1:60
//! recover@150:1
//! clients@200:16
//! addmds@260
//! knob@300:if_threshold:0.2
//! ```
//!
//! Fault events are parsed by [`lunule_faults::parse_fault_kind`] — the
//! same code path as CLI `--faults` specs — and become the simulation's
//! [`FaultSchedule`]; everything else becomes a [`TimedCommand`] that the
//! daemon loop (or the one-shot runner) applies at the named tick
//! boundary. [`Session::format`] renders the canonical form, and
//! parse → format → parse is the identity.

use crate::command::{parse_command, Command, TimedCommand};
use lunule_core::{make_balancer, BalancerKind};
use lunule_faults::{format_fault_event, tokenize_event, FaultPlan, FaultSchedule, SpecError};
use lunule_sim::{OpStream, SimConfig, Simulation};
use lunule_snapshot::{Snapshot, SnapshotError};
use lunule_telemetry::Telemetry;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

/// Most clients a session may run: the `clients` header plus every
/// `clients@T:N`. [`Session::build`] makes every client's dataset and op
/// stream before the first tick, and Zipf gives each client private files
/// (10,000 at scale 1), so this bounds what a script can make the daemon
/// allocate. The cap is ten times the largest checked-in session (160
/// clients in `benchmark/service_mixed.lds`). At the cap and scale 1, Zipf
/// builds 16 M files in ~3 s within 6 GB of address space (2-vCPU VM);
/// 10,000 clients asked for 7.5 GB in a single allocation.
const MAX_CLIENTS: usize = 1_600;

/// A session script [`Session::parse`] refuses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// A `key=value` header line is malformed, or the headers together
    /// describe no runnable session.
    Header(String),
    /// A `kind@tick:...` event line is malformed, with the error of the
    /// event grammar it shares with `--faults` specs.
    Event(SpecError),
}

impl From<SpecError> for SessionError {
    fn from(e: SpecError) -> Self {
        SessionError::Event(e)
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Header(msg) => write!(f, "bad session header: {msg}"),
            SessionError::Event(e) => write!(f, "bad session event: {}", e.message()),
        }
    }
}

impl std::error::Error for SessionError {}

/// A parsed session: cluster shape, workload, fault schedule, and the
/// timed operator commands.
#[derive(Debug)]
pub struct Session {
    /// Master seed for workload generation and the simulation.
    pub seed: u64,
    /// Initial MDS rank count.
    pub n_mds: usize,
    /// Run length in ticks.
    pub duration: u64,
    /// Balance epoch length in ticks.
    pub epoch: u64,
    /// Initial client count.
    pub clients: usize,
    /// Workload scale in (0, 1].
    pub scale: f64,
    /// Which workload the clients run.
    pub workload: WorkloadKind,
    /// Which balancer policy drives migration.
    pub balancer: BalancerKind,
    /// Per-MDS capacity (IOPS).
    pub capacity: f64,
    /// Scripted fault events (parsed through the `lunule-faults` grammar).
    pub faults: FaultSchedule,
    /// Timed control commands, stably sorted by tick (file order within a
    /// tick).
    pub commands: Vec<TimedCommand>,
    /// Total clients later `clients@T:N` commands will attach; their
    /// streams are built up front (deterministically, from the same seed)
    /// and held in a deferred pool.
    pub extra_clients: usize,
}

impl Default for Session {
    fn default() -> Self {
        Session {
            seed: 42,
            n_mds: 4,
            duration: 400,
            epoch: 20,
            clients: 32,
            scale: 0.05,
            workload: WorkloadKind::ZipfRead,
            balancer: BalancerKind::Lunule,
            capacity: 1_000.0,
            faults: FaultSchedule::empty(),
            commands: Vec::new(),
            extra_clients: 0,
        }
    }
}

fn parse_workload(label: &str) -> Result<WorkloadKind, SessionError> {
    match label.to_ascii_lowercase().as_str() {
        "cnn" => Ok(WorkloadKind::Cnn),
        "nlp" => Ok(WorkloadKind::Nlp),
        "web" => Ok(WorkloadKind::Web),
        "zipf" => Ok(WorkloadKind::ZipfRead),
        "md" => Ok(WorkloadKind::MdCreate),
        "md-full" | "mdfull" => Ok(WorkloadKind::MdFull),
        "mixed" => Ok(WorkloadKind::Mixed),
        other => Err(SessionError::Header(format!(
            "unknown workload '{other}' (want cnn/nlp/web/zipf/md/md-full/mixed)"
        ))),
    }
}

fn workload_label(kind: WorkloadKind) -> &'static str {
    match kind {
        WorkloadKind::Cnn => "cnn",
        WorkloadKind::Nlp => "nlp",
        WorkloadKind::Web => "web",
        WorkloadKind::ZipfRead => "zipf",
        WorkloadKind::MdCreate => "md",
        WorkloadKind::MdFull => "md-full",
        WorkloadKind::Mixed => "mixed",
    }
}

fn parse_balancer(label: &str) -> Result<BalancerKind, SessionError> {
    match label.to_ascii_lowercase().as_str() {
        "lunule" => Ok(BalancerKind::Lunule),
        "light" | "lunule-light" => Ok(BalancerKind::LunuleLight),
        "vanilla" => Ok(BalancerKind::Vanilla),
        "greedy" | "greedyspill" => Ok(BalancerKind::GreedySpill),
        "dirhash" | "dir-hash" => Ok(BalancerKind::DirHash),
        "off" => Ok(BalancerKind::Off),
        other => Err(SessionError::Header(format!(
            "unknown balancer '{other}' (want lunule/light/vanilla/greedy/dirhash/off)"
        ))),
    }
}

fn balancer_label(kind: BalancerKind) -> &'static str {
    match kind {
        BalancerKind::Lunule => "lunule",
        BalancerKind::LunuleLight => "light",
        BalancerKind::Vanilla => "vanilla",
        BalancerKind::GreedySpill => "greedy",
        BalancerKind::DirHash => "dirhash",
        BalancerKind::Off => "off",
    }
}

impl Session {
    /// Parses a session script (see module docs).
    pub fn parse(text: &str) -> Result<Session, SessionError> {
        let mut session = Session::default();
        let mut event_lines: Vec<&str> = Vec::new();

        // Pass 1: headers; event lines are deferred so headers like
        // `duration` and `mds` apply regardless of where they appear.
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line.contains('@') {
                event_lines.push(line);
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                SessionError::Header(format!(
                    "line {}: expected `key=value` or `kind@tick:...`, got `{raw}`",
                    i + 1
                ))
            })?;
            let (key, value) = (key.trim(), value.trim());
            let bad =
                |what: &str| SessionError::Header(format!("line {}: bad {what} `{value}`", i + 1));
            match key {
                "seed" => session.seed = value.parse().map_err(|_| bad("seed"))?,
                "mds" => session.n_mds = value.parse().map_err(|_| bad("mds"))?,
                "duration" => session.duration = value.parse().map_err(|_| bad("duration"))?,
                "epoch" => session.epoch = value.parse().map_err(|_| bad("epoch"))?,
                "clients" => session.clients = value.parse().map_err(|_| bad("clients"))?,
                "scale" => session.scale = value.parse().map_err(|_| bad("scale"))?,
                "workload" => session.workload = parse_workload(value)?,
                "balancer" => session.balancer = parse_balancer(value)?,
                "capacity" => session.capacity = value.parse().map_err(|_| bad("capacity"))?,
                other => {
                    return Err(SessionError::Header(format!(
                        "line {}: unknown header `{other}`",
                        i + 1
                    )))
                }
            }
        }
        if session.n_mds == 0 || session.duration == 0 || session.epoch == 0 {
            return Err(SessionError::Header(
                "mds, duration and epoch must be positive".into(),
            ));
        }
        if !(session.capacity.is_finite() && session.capacity > 0.0) {
            return Err(SessionError::Header(format!(
                "capacity must be finite and positive, got {}",
                session.capacity
            )));
        }
        // `WorkloadSpec::validate`'s range; NaN fails both comparisons.
        if !(session.scale > 0.0 && session.scale <= 1.0) {
            return Err(SessionError::Header(format!(
                "scale must be in (0, 1], got {}",
                session.scale
            )));
        }
        if session.clients == 0 {
            return Err(SessionError::Header("clients must be positive".into()));
        }

        // Pass 2a: tokenize everything and find how large the cluster can
        // grow, so later fault/drain events may target added ranks.
        let tokenized = event_lines
            .iter()
            .map(|l| tokenize_event(l))
            .collect::<Result<Vec<_>, _>>()?;
        let mut max_ranks = session.n_mds;
        for line in &tokenized {
            if line.kind == "addmds" {
                max_ranks += match line.fields.first() {
                    Some(_) => line.num(0)?.min(1024) as usize,
                    None => 1,
                };
            }
        }

        // Pass 2b: fault events into the schedule, everything else into
        // the timed command list.
        let mut plan = FaultPlan::new();
        for line in &tokenized {
            if line.at_tick >= session.duration {
                return Err(SpecError::new(format!(
                    "event '{}': tick {} beyond session of {} ticks",
                    line.raw, line.at_tick, session.duration
                ))
                .into());
            }
            match parse_command(line, max_ranks)? {
                Command::Fault(kind) => plan = plan.event(line.at_tick, kind),
                command => session.commands.push(TimedCommand {
                    at_tick: line.at_tick,
                    command,
                }),
            }
        }
        session.faults = plan.build();
        session.commands.sort_by_key(|tc: &TimedCommand| tc.at_tick);
        let total = session
            .commands
            .iter()
            .try_fold(session.clients, |sum, tc| match tc.command {
                Command::AddClients(n) => sum.checked_add(n),
                _ => Some(sum),
            })
            .filter(|total| *total <= MAX_CLIENTS)
            .ok_or_else(|| {
                SessionError::Header(format!(
                    "clients plus every clients@ count must be at most {MAX_CLIENTS}"
                ))
            })?;
        session.extra_clients = total - session.clients;
        Ok(session)
    }

    /// Renders the canonical script form: headers in fixed order, then
    /// fault events, then commands, each sorted by tick. Parsing the
    /// result reproduces this session.
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("seed={}\n", self.seed));
        out.push_str(&format!("mds={}\n", self.n_mds));
        out.push_str(&format!("duration={}\n", self.duration));
        out.push_str(&format!("epoch={}\n", self.epoch));
        out.push_str(&format!("clients={}\n", self.clients));
        out.push_str(&format!("scale={}\n", self.scale));
        out.push_str(&format!("workload={}\n", workload_label(self.workload)));
        out.push_str(&format!("balancer={}\n", balancer_label(self.balancer)));
        out.push_str(&format!("capacity={}\n", self.capacity));
        for event in self.faults.events() {
            out.push_str(&format_fault_event(event));
            out.push('\n');
        }
        for tc in &self.commands {
            out.push_str(&format_timed_command(tc));
            out.push('\n');
        }
        out
    }

    /// Materialises the session: workload, simulation, and the deferred
    /// client-stream pool for later `clients@T:N` commands. The pool is
    /// built up front from the same seed — fig12b-style — so mid-run
    /// client growth is deterministic in both the daemon and one-shot
    /// paths.
    pub fn build(&self, telemetry: Telemetry) -> (Simulation, Vec<Box<dyn OpStream>>) {
        let spec = WorkloadSpec {
            kind: self.workload,
            clients: self.clients + self.extra_clients,
            scale: self.scale,
            seed: self.seed,
        };
        let (ns, mut streams) = spec.build();
        let deferred = if streams.len() > self.clients {
            streams.split_off(self.clients)
        } else {
            Vec::new()
        };
        let cfg = self.sim_config(telemetry);
        let balancer = make_balancer(self.balancer, self.capacity);
        (Simulation::new(cfg, ns, balancer, streams), deferred)
    }

    /// Materialises the session **from a snapshot** instead of from tick
    /// zero: the same workload inputs, configuration, and balancer policy
    /// are rebuilt — exactly as [`Session::build`] would — but all dynamic
    /// state comes from `snap` via [`Simulation::restore`]. The stream
    /// split honours the snapshot's own stream count (a session that grew
    /// clients mid-run snapshots more than it started with), so the
    /// returned deferred pool holds exactly the streams that were still
    /// unattached at capture time. Sizing is by *streams*, not members:
    /// under the cohort model a group of identical clients shares one
    /// stream, and restore wants exactly one stream per group.
    pub fn build_restored(
        &self,
        telemetry: Telemetry,
        snap: &Snapshot,
    ) -> Result<(Simulation, Vec<Box<dyn OpStream>>), SnapshotError> {
        let attached = lunule_sim::snapshot_stream_count(snap)?;
        let spec = WorkloadSpec {
            kind: self.workload,
            clients: self.clients + self.extra_clients,
            scale: self.scale,
            seed: self.seed,
        };
        // The namespace tree is rebuilt by the spec but superseded by the
        // snapshot's own copy (heat decays, ops mutate it); only the
        // streams are structural inputs to the restore.
        let (_ns, mut streams) = spec.build();
        let deferred = if streams.len() > attached {
            streams.split_off(attached)
        } else {
            Vec::new()
        };
        let cfg = self.sim_config(telemetry);
        let balancer = make_balancer(self.balancer, self.capacity);
        let sim = Simulation::restore(cfg, balancer, streams, snap)?;
        Ok((sim, deferred))
    }

    /// The session's run identity digest (see
    /// [`lunule_sim::config::config_digest`]) — what its snapshots are
    /// stamped with, and the filter restore paths scan directories by.
    pub fn digest(&self) -> u64 {
        lunule_sim::config::config_digest(&self.sim_config(Telemetry::disabled()))
    }

    fn sim_config(&self, telemetry: Telemetry) -> SimConfig {
        SimConfig {
            n_mds: self.n_mds,
            mds_capacity: self.capacity,
            epoch_secs: self.epoch,
            duration_secs: self.duration,
            stop_when_done: false,
            seed: self.seed,
            telemetry,
            faults: self.faults.clone(),
            ..SimConfig::default()
        }
    }
}

/// Renders one timed command in the script grammar (inverse of
/// [`parse_command`] for non-fault commands).
pub fn format_timed_command(tc: &TimedCommand) -> String {
    let t = tc.at_tick;
    match &tc.command {
        Command::Fault(kind) => format_fault_event(&lunule_faults::FaultEvent {
            at_tick: t,
            kind: *kind,
        }),
        Command::Recover(rank) => format!("recover@{t}:{}", rank.0),
        Command::AddMds(1) => format!("addmds@{t}"),
        Command::AddMds(n) => format!("addmds@{t}:{n}"),
        Command::DrainMds(rank) => format!("drain@{t}:{}", rank.0),
        Command::AddClients(n) => format!("clients@{t}:{n}"),
        Command::SetKnob { name, value } => format!("knob@{t}:{name}:{value}"),
        Command::Status => format!("status@{t}"),
        Command::Snapshot => format!("snapshot@{t}"),
        Command::Pause => format!("pause@{t}"),
        Command::Resume => format!("resume@{t}"),
        Command::Step(n) => format!("step@{t}:{n}"),
        Command::Stop => format!("stop@{t}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRIPT: &str = "\
# demo session
seed=7
mds=3
duration=300
epoch=20
clients=8
scale=0.02
workload=zipf
balancer=lunule
capacity=500

crash@60:1:30        # rank 1 down for 30 ticks
recover@80:1
clients@100:4
addmds@140
knob@160:if_threshold:0.2
drain@200:2
pause@220
step@220:5
resume@221
status@240
";

    #[test]
    fn parses_headers_events_and_commands() {
        let s = Session::parse(SCRIPT).unwrap();
        assert_eq!(s.seed, 7);
        assert_eq!(s.n_mds, 3);
        assert_eq!(s.duration, 300);
        assert_eq!(s.clients, 8);
        assert_eq!(s.workload, WorkloadKind::ZipfRead);
        assert_eq!(s.balancer, BalancerKind::Lunule);
        assert_eq!(s.faults.len(), 1, "the crash is a fault-schedule event");
        assert_eq!(s.commands.len(), 9);
        assert_eq!(s.extra_clients, 4);
    }

    #[test]
    fn rank_bounds_account_for_addmds() {
        // Rank 3 does not exist initially (mds=3) but addmds@140 grows the
        // cluster, so targeting it later is legal.
        let grown = format!("{SCRIPT}\ndrain@250:3\n");
        assert!(Session::parse(&grown).is_ok());
        // Rank 4 is never reachable.
        let bad = format!("{SCRIPT}\ndrain@250:4\n");
        assert!(Session::parse(&bad).is_err());
    }

    #[test]
    fn out_of_range_ticks_and_bad_headers_fail() {
        assert!(Session::parse("duration=10\ncrash@10:0:5\n").is_err());
        assert!(Session::parse("mds=0\n").is_err());
        assert!(Session::parse("volume=11\n").is_err());
        assert!(Session::parse("not a line\n").is_err());
        assert!(Session::parse("workload=fortran\n").is_err());
        assert!(Session::parse("balancer=entropy\n").is_err());
    }

    /// Asserts that `script` is refused with an error naming `what`.
    fn refused(script: &str, what: &str) {
        match Session::parse(script) {
            Ok(_) => panic!("`{script}` parsed"),
            Err(e) => assert!(e.to_string().contains(what), "`{script}`: {e}"),
        }
    }

    #[test]
    fn header_and_event_errors_name_their_kind() {
        let header = Session::parse("capacity=0\n").unwrap_err();
        assert_eq!(
            header.to_string(),
            "bad session header: capacity must be finite and positive, got 0"
        );
        let event = Session::parse("mds=2\ncrash@10:5:5\n").unwrap_err();
        assert_eq!(
            event.to_string(),
            "bad session event: event 'crash@10:5:5': rank 5 outside cluster of 2"
        );
    }

    #[test]
    fn capacity_must_be_finite_and_positive() {
        for bad in ["0", "-5", "nan", "inf"] {
            refused(&format!("capacity={bad}\n"), "capacity");
        }
    }

    #[test]
    fn scale_must_lie_in_zero_to_one() {
        for bad in ["0", "-1", "nan", "1e12"] {
            refused(&format!("scale={bad}\n"), "scale");
        }
        assert!(Session::parse("scale=1\n").is_ok());
    }

    #[test]
    fn client_totals_are_capped() {
        refused("clients=100000000000\n", "clients");
        refused(&format!("clients={}\n", MAX_CLIENTS + 1), "clients");
        // The clients@ sum overflows usize.
        refused(
            &format!(
                "clients=1\nclients@1:{}\nclients@2:{}\n",
                u64::MAX,
                u64::MAX
            ),
            "clients",
        );
        // Each count is small, but the total passes the cap.
        refused(&format!("clients={MAX_CLIENTS}\nclients@1:1\n"), "clients");
        let at_cap = Session::parse(&format!("clients={}\nclients@1:1\n", MAX_CLIENTS - 1));
        assert_eq!(at_cap.map(|s| s.extra_clients).ok(), Some(1));
    }

    #[test]
    fn checked_in_sessions_parse() {
        for script in [
            include_str!("../../../examples/session.lds"),
            include_str!("../../../benchmark/service_mixed.lds"),
            include_str!("../../../benchmark/service_smoke.lds"),
        ] {
            let s = Session::parse(script).unwrap();
            assert!(s.clients + s.extra_clients <= MAX_CLIENTS);
        }
    }

    #[test]
    fn format_round_trips() {
        let s = Session::parse(SCRIPT).unwrap();
        let canonical = s.format();
        let back = Session::parse(&canonical).unwrap();
        assert_eq!(back.format(), canonical, "canonical form is a fixpoint");
        assert_eq!(back.faults, s.faults);
        assert_eq!(back.commands.len(), s.commands.len());
        assert_eq!(back.extra_clients, s.extra_clients);
    }

    #[test]
    fn build_splits_the_deferred_pool() {
        let s = Session::parse(SCRIPT).unwrap();
        let (sim, pool) = s.build(Telemetry::disabled());
        assert_eq!(sim.n_mds(), 3);
        assert_eq!(sim.n_clients(), 8);
        assert_eq!(pool.len(), 4);
    }
}
