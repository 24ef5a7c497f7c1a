//! The wall-clock phase profiler: where the time of a tick goes.
//!
//! A side channel, like the daemon's pacing: it reads the wall clock and
//! decides nothing. What it measures never reaches the journal, a
//! snapshot or a result, so a profiled run is byte-identical to an
//! unprofiled one. This module is the only one in the simulator that
//! touches `Instant`.
//!
//! Off (the default), each probe is one branch on a flag. On, every tick
//! is timed in whole and in the tick-level [`Phase`]s, which follow each
//! other without gaps except for the tick's journal stamp. One tick in
//! [`ROUND_SAMPLE_EVERY`] also times the seven [`RoundPhase`]s of each of
//! its issue rounds: a tick can run hundreds of rounds, so timing all of
//! them would spend a large share of the tick reading the clock.
//!
//! [`Profile::to_json`] renders the totals (PROFILE.json) and
//! [`Profile::chrome_trace`] the tick-level spans as a Chrome trace.
#![expect(
    clippy::disallowed_types,
    reason = "the simulator's one wall-clock boundary: a side channel that times the phases of a tick and feeds nothing back"
)]

use lunule_telemetry::WallSpan;
use lunule_util::convert::u64_to_f64;
use lunule_util::json::Json;
use std::time::Instant;

/// A tick-level phase of `Simulation::step_tick`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Fault events and recoveries, then the budget refill.
    Faults,
    /// `Migrator::step`: transfer progress and commits.
    Migrator,
    /// The commit's cache hand-off to the clients and resident counts.
    Handoff,
    /// Data-path progress and the per-tick client reset.
    Datapath,
    /// The issue rounds.
    Issue,
    /// The op ledger's flush to telemetry.
    Ledger,
    /// Epoch close: the epoch's stats and record.
    EpochStats,
    /// Epoch close: `Balancer::on_epoch` and the dead-rank filter.
    OnEpoch,
    /// Epoch close: `Migrator::enqueue_plan`.
    EnqueuePlan,
    /// Epoch close: the epoch reset and `merge_equal_states`.
    Merge,
}

impl Phase {
    /// Every phase, in tick order.
    pub const ALL: [Phase; 10] = [
        Phase::Faults,
        Phase::Migrator,
        Phase::Handoff,
        Phase::Datapath,
        Phase::Issue,
        Phase::Ledger,
        Phase::EpochStats,
        Phase::OnEpoch,
        Phase::EnqueuePlan,
        Phase::Merge,
    ];

    /// The name PROFILE.json and the trace use.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Faults => "faults_refill",
            Phase::Migrator => "migrator_step",
            Phase::Handoff => "cache_handoff",
            Phase::Datapath => "datapath_reset",
            Phase::Issue => "issue_rounds",
            Phase::Ledger => "ledger_flush",
            Phase::EpochStats => "epoch_stats",
            Phase::OnEpoch => "on_epoch",
            Phase::EnqueuePlan => "enqueue_plan",
            Phase::Merge => "merge_equal_states",
        }
    }
}

/// A phase of one issue round (see the cohort engine's module doc).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundPhase {
    /// Each live cohort checks that it can issue and peeks its op.
    Draw,
    /// The drawn inodes' cache lines are loaded.
    Warm,
    /// Freeze checks, classes and routing anchors.
    Route,
    /// Route resolution.
    Resolve,
    /// The per-rank demand filter and `Balancer::prefetch`.
    Demand,
    /// Budgets, counters, namespace effects and balancer accesses.
    Serve,
    /// Splits and the served cohorts' state advance.
    PostRound,
}

impl RoundPhase {
    /// Every round phase, in round order.
    pub const ALL: [RoundPhase; 7] = [
        RoundPhase::Draw,
        RoundPhase::Warm,
        RoundPhase::Route,
        RoundPhase::Resolve,
        RoundPhase::Demand,
        RoundPhase::Serve,
        RoundPhase::PostRound,
    ];

    /// The name PROFILE.json uses.
    pub fn name(self) -> &'static str {
        match self {
            RoundPhase::Draw => "draw",
            RoundPhase::Warm => "warm",
            RoundPhase::Route => "route",
            RoundPhase::Resolve => "resolve",
            RoundPhase::Demand => "demand_prefetch",
            RoundPhase::Serve => "serve",
            RoundPhase::PostRound => "post_round",
        }
    }
}

/// One tick in this many has its issue rounds timed phase by phase.
pub const ROUND_SAMPLE_EVERY: u64 = 16;

/// Trace spans kept at most; ticks past the cap are still counted, only
/// their spans are dropped.
const MAX_SPANS: usize = 1 << 18;

/// Span name of a whole tick in the trace.
const TICK_SPAN: &str = "tick";

/// What the profiler measured, in wall-clock nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Ticks timed.
    pub ticks: u64,
    /// Their summed wall time.
    pub tick_ns: u64,
    /// Summed time per tick-level phase, indexed like [`Phase::ALL`].
    pub phase_ns: [u64; Phase::ALL.len()],
    /// Ticks whose rounds were timed phase by phase.
    pub sampled_ticks: u64,
    /// The issue-phase time of those ticks.
    pub sampled_issue_ns: u64,
    /// The issue rounds those ticks ran.
    pub sampled_rounds: u64,
    /// Summed time per round phase over those ticks, indexed like
    /// [`RoundPhase::ALL`].
    pub round_ns: [u64; RoundPhase::ALL.len()],
    /// Ticks whose spans were dropped at the span cap.
    pub dropped_ticks: u64,
    /// Tick-level spans in pre-order: each tick (`None`), then its
    /// phases. Begin and end are nanoseconds since the first tick.
    spans: Vec<(Option<Phase>, u64, u64)>,
}

impl Profile {
    /// Share of the timed tick time the tick-level phases account for.
    pub fn coverage(&self) -> f64 {
        let covered: u64 = self.phase_ns.iter().sum();
        u64_to_f64(covered) / u64_to_f64(self.tick_ns.max(1))
    }

    /// Share of the sampled ticks' issue time the round phases account
    /// for.
    pub fn round_coverage(&self) -> f64 {
        let covered: u64 = self.round_ns.iter().sum();
        u64_to_f64(covered) / u64_to_f64(self.sampled_issue_ns.max(1))
    }

    /// The PROFILE.json document.
    pub fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(u64_to_f64(v));
        let share = |ns: u64, of: u64| Json::Num(u64_to_f64(ns) / u64_to_f64(of.max(1)));
        let phases = Phase::ALL
            .iter()
            .zip(self.phase_ns)
            .map(|(p, ns)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(p.name().into())),
                    ("ns".into(), num(ns)),
                    ("share".into(), share(ns, self.tick_ns)),
                ])
            })
            .collect();
        let rounds = RoundPhase::ALL
            .iter()
            .zip(self.round_ns)
            .map(|(p, ns)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(p.name().into())),
                    ("ns".into(), num(ns)),
                    ("share_of_issue".into(), share(ns, self.sampled_issue_ns)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("ticks".into(), num(self.ticks)),
            ("tick_ns".into(), num(self.tick_ns)),
            ("coverage".into(), Json::Num(self.coverage())),
            ("phases".into(), Json::Arr(phases)),
            ("round_sample_every".into(), num(ROUND_SAMPLE_EVERY)),
            ("sampled_ticks".into(), num(self.sampled_ticks)),
            ("sampled_rounds".into(), num(self.sampled_rounds)),
            ("sampled_issue_ns".into(), num(self.sampled_issue_ns)),
            ("round_coverage".into(), Json::Num(self.round_coverage())),
            ("round_phases".into(), Json::Arr(rounds)),
            ("dropped_ticks".into(), num(self.dropped_ticks)),
        ])
    }

    /// The kept tick-level spans as a Chrome trace: one `tick` span per
    /// tick with its phases nested inside, on a microsecond timeline that
    /// starts at the first profiled tick.
    pub fn chrome_trace(&self) -> String {
        let us = |ns: u64| u64_to_f64(ns) / 1_000.0;
        let spans: Vec<WallSpan<'_>> = self
            .spans
            .iter()
            .map(|&(phase, begin, end)| WallSpan {
                name: phase.map_or(TICK_SPAN, Phase::name),
                begin_us: us(begin),
                end_us: us(end),
            })
            .collect();
        lunule_telemetry::span_trace(&spans)
    }
}

/// The probes `Simulation` calls. Transient: never serialized, off after
/// a restore.
#[derive(Default)]
pub(crate) struct Profiler {
    on: bool,
    /// A tick is being timed.
    in_tick: bool,
    /// This tick's rounds are timed phase by phase.
    sampling: bool,
    /// This tick's spans are kept.
    keep_spans: bool,
    /// Index of this tick's own span, closed at the tick's end.
    tick_span: usize,
    origin: Option<Instant>,
    tick_start: Option<Instant>,
    mark: Option<Instant>,
    round_mark: Option<Instant>,
    profile: Profile,
}

impl Profiler {
    pub(crate) fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub(crate) fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Starts timing a tick.
    #[inline]
    pub(crate) fn begin_tick(&mut self) {
        if self.on {
            self.begin_tick_on();
        }
    }

    /// Restarts the phase clock without charging the time since the last
    /// probe to any phase.
    #[inline]
    pub(crate) fn skip(&mut self) {
        if self.in_tick {
            self.mark = Some(Instant::now());
        }
    }

    /// Charges the time since the last probe to `phase`.
    #[inline]
    pub(crate) fn lap(&mut self, phase: Phase) {
        if self.in_tick {
            self.lap_on(phase);
        }
    }

    /// Ends the tick's timing.
    #[inline]
    pub(crate) fn end_tick(&mut self) {
        if self.in_tick {
            self.end_tick_on();
        }
    }

    /// Starts timing an issue round of a sampled tick.
    #[inline]
    pub(crate) fn begin_round(&mut self) {
        if self.sampling {
            self.profile.sampled_rounds += 1;
            self.round_mark = Some(Instant::now());
        }
    }

    /// Charges the time since the last round probe to `phase`.
    #[inline]
    pub(crate) fn round_lap(&mut self, phase: RoundPhase) {
        if self.sampling {
            self.round_lap_on(phase);
        }
    }

    #[inline(never)]
    fn begin_tick_on(&mut self) {
        let now = Instant::now();
        self.origin.get_or_insert(now);
        self.in_tick = true;
        self.sampling = self.profile.ticks.is_multiple_of(ROUND_SAMPLE_EVERY);
        // Room for every phase of the tick and the tick itself.
        self.keep_spans = self.profile.spans.len() + Phase::ALL.len() < MAX_SPANS;
        if self.keep_spans {
            let at = self.since_origin(now);
            self.profile.spans.push((None, at, at));
            self.tick_span = self.profile.spans.len() - 1;
        }
        self.tick_start = Some(now);
        self.mark = Some(now);
    }

    #[inline(never)]
    fn lap_on(&mut self, phase: Phase) {
        let now = Instant::now();
        let begin = self.mark.unwrap_or(now);
        let ns = nanos(begin, now);
        let slot = Phase::ALL.iter().position(|p| *p == phase).unwrap_or(0);
        self.profile.phase_ns[slot] += ns;
        if phase == Phase::Issue && self.sampling {
            self.profile.sampled_issue_ns += ns;
        }
        if self.keep_spans {
            let (b, e) = (self.since_origin(begin), self.since_origin(now));
            self.profile.spans.push((Some(phase), b, e));
        }
        self.mark = Some(now);
    }

    #[inline(never)]
    fn end_tick_on(&mut self) {
        let now = Instant::now();
        let start = self.tick_start.unwrap_or(now);
        self.profile.ticks += 1;
        self.profile.tick_ns += nanos(start, now);
        if self.sampling {
            self.profile.sampled_ticks += 1;
        }
        if self.keep_spans {
            let end = self.since_origin(now);
            if let Some(span) = self.profile.spans.get_mut(self.tick_span) {
                span.2 = end;
            }
        } else {
            self.profile.dropped_ticks += 1;
        }
        self.in_tick = false;
        self.sampling = false;
    }

    #[inline(never)]
    fn round_lap_on(&mut self, phase: RoundPhase) {
        let now = Instant::now();
        let slot = RoundPhase::ALL
            .iter()
            .position(|p| *p == phase)
            .unwrap_or(0);
        self.profile.round_ns[slot] += nanos(self.round_mark.unwrap_or(now), now);
        self.round_mark = Some(now);
    }

    fn since_origin(&self, at: Instant) -> u64 {
        self.origin.map_or(0, |o| nanos(o, at))
    }
}

/// Whole nanoseconds from `from` to `to`, saturating.
fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}
