//! The simulation driver: tick loop, request routing, balancer epochs.

use crate::client::Client;
use crate::cohort::CohortSet;
use crate::cohort_engine::cohort_datapath_step;
use crate::config::SimConfig;
use crate::latency::LatencyHistogram;
use crate::mds::MdsState;
use crate::migration::MigrationCounters;
use crate::migration::Migrator;
use crate::request::OpStream;
use crate::results::{EpochRecord, RunResult};
use lunule_core::{Balancer, EpochStats};
use lunule_faults::FaultKind;
use lunule_namespace::{FragKey, MdsRank, Namespace, SubtreeMap};
use lunule_telemetry::{Event, Telemetry};
use lunule_util::convert::{u64_to_f64, u64_to_usize, usize_to_f64, usize_to_u32, usize_to_u64};
#[cfg(feature = "strict-invariants")]
use lunule_verify::InvariantChecker;

/// A running MDS-cluster simulation.
///
/// Construct with a namespace, a balancer and per-client op streams, then
/// either [`Simulation::run`] to completion or [`Simulation::run_until`]
/// interleaved with [`Simulation::add_mds`] / [`Simulation::add_clients`]
/// for the dynamic-adaptation experiments.
pub struct Simulation {
    pub(crate) cfg: SimConfig,
    pub(crate) ns: Namespace,
    pub(crate) map: SubtreeMap,
    pub(crate) mds: Vec<MdsState>,
    /// The client population, aggregated into cohorts. The issue engine
    /// moves it out (`std::mem::take`) while it borrows the rest of the
    /// simulation mutably.
    pub(crate) cohorts: CohortSet,
    pub(crate) migrator: Migrator,
    pub(crate) balancer: Box<dyn Balancer>,
    pub(crate) latency: LatencyHistogram,
    /// Resident (authoritative) inodes per rank, maintained incrementally
    /// on creates, removes, migrations, and drains.
    pub(crate) resident: Vec<u64>,
    pub(crate) tick: u64,
    pub(crate) epochs: Vec<EpochRecord>,
    /// Shared handle every layer journals into (cloned from the config;
    /// disabled by default, in which case each site is a single branch).
    pub(crate) telemetry: Telemetry,
    /// Events of `cfg.faults` injected so far (the schedule is tick-sorted,
    /// so a cursor suffices).
    pub(crate) fault_cursor: usize,
    /// Operator-queued faults (daemon control plane), drained at the next
    /// tick start — after the scheduled events — so their journal entries
    /// carry the tick they actually fire at.
    pub(crate) pending_faults: Vec<FaultKind>,
    /// Per-rank crash state: `Some((recover_at, crashed_at))` while down.
    pub(crate) down_until: Vec<Option<(u64, u64)>>,
    /// Capacity saved at crash time, restored on recovery.
    pub(crate) saved_capacity: Vec<f64>,
    /// Per-rank degradation: `Some((factor, until_tick))` while limping.
    pub(crate) limp: Vec<Option<(f64, u64)>>,
    /// Per-rank report loss: the rank's epoch reports are treated as
    /// missing while `tick < report_loss_until[rank]`.
    pub(crate) report_loss_until: Vec<u64>,
    /// Migration journal-event counts (`start`, `commit`, `abandon`)
    /// accumulated by runs *before* the last restore. A restored run's
    /// telemetry journal starts empty, so the ledger audit adds these
    /// offsets to the fresh journal's counts to reconcile against the
    /// migrator's cumulative counters. `(0, 0, 0)` for an uninterrupted run.
    pub(crate) journal_base: (u64, u64, u64),
    /// Per-rank route-cost buffer of the create serve path, reused across
    /// ops so a served create allocates nothing.
    pub(crate) costs_scratch: Vec<(usize, f64)>,
    /// Memoized subtree-map authority lookups, shared by every resolve
    /// site. Self-invalidating on subtree-map generation bumps, so it is
    /// pure transient state: never serialized, rebuilt on demand after a
    /// restore, and worker-count-independent (the parallel resolve phase
    /// only reads a cache primed serially beforehand).
    pub(crate) auth_cache: lunule_namespace::AuthorityCache,
    /// Per-tick served-op metric accumulator, flushed to telemetry once
    /// per tick (see [`crate::tick_ledger`]). Always empty between
    /// ticks, so it is transient state like the scratch buffers above
    /// and never appears in snapshots.
    pub(crate) op_ledger: crate::tick_ledger::TickOpLedger,
    /// Cross-layer invariant auditor (strict builds only): the cheap map
    /// checks run after every tick, the full battery — conservation, frag
    /// partitions, IF-model laws — at every epoch close. Any violation
    /// panics with a readable report.
    #[cfg(feature = "strict-invariants")]
    pub(crate) checker: InvariantChecker,
}

impl Simulation {
    /// Builds a simulation. The balancer's `setup` hook runs here (static
    /// policies pin the namespace now); all metadata starts on rank 0
    /// otherwise, CephFS's initial single-subtree state.
    pub fn new(
        cfg: SimConfig,
        ns: Namespace,
        balancer: Box<dyn Balancer>,
        streams: Vec<Box<dyn OpStream>>,
    ) -> Self {
        // Every stream is its own group of one: distinct clients never
        // merge (cohorts only merge within a group), so this is safe for
        // arbitrary per-client streams, cloneable or not. Aggregation wins
        // come from [`Simulation::new_grouped`].
        let groups = streams.into_iter().map(|s| (s, 1)).collect();
        Self::build(cfg, ns, balancer, groups)
    }

    /// Builds a simulation whose clients arrive as *groups*: `count`
    /// identical clients per op stream, advanced as one cohort until their
    /// states diverge. This is the million-client entry point — memory and
    /// per-tick work scale with the number of *distinct* client states,
    /// not the member count. Group streams with `count > 1` must be
    /// cloneable ([`OpStream::try_clone_box`]) so cohorts can split.
    pub fn new_grouped(
        cfg: SimConfig,
        ns: Namespace,
        balancer: Box<dyn Balancer>,
        groups: Vec<(Box<dyn OpStream>, u64)>,
    ) -> Self {
        Self::build(cfg, ns, balancer, groups)
    }

    fn build(
        cfg: SimConfig,
        ns: Namespace,
        mut balancer: Box<dyn Balancer>,
        groups: Vec<(Box<dyn OpStream>, u64)>,
    ) -> Self {
        cfg.validate();
        let telemetry = cfg.telemetry.clone();
        telemetry.emit(|| Event::RunStart {
            n_mds: usize_to_u32(cfg.n_mds),
        });
        let mut map = SubtreeMap::new(MdsRank(0));
        balancer.setup(&ns, &mut map, cfg.n_mds);
        balancer.attach_telemetry(telemetry.clone());
        let resident: Vec<u64> = map
            .inode_counts(&ns, cfg.n_mds)
            .into_iter()
            .map(usize_to_u64)
            .collect();
        let mut at = 0usize;
        let groups: Vec<(Client, u64)> = groups
            .into_iter()
            .map(|(s, count)| {
                assert!(count >= 1, "client group must have at least one member");
                assert!(
                    count == 1 || s.try_clone_box().is_some(),
                    "multi-member client group needs a cloneable op stream"
                );
                let mut c = Client::new(at, s, 0);
                c.cache_cap = cfg.client_cache_cap;
                c.data_window = cfg.data_path.map(|dp| dp.client_window).unwrap_or(0);
                at += u64_to_usize(count);
                (c, count)
            })
            .collect();
        let mut migrator = Migrator::new(
            cfg.migration_bw,
            cfg.migration_freeze_secs,
            cfg.migration_op_cost,
        );
        migrator.configure_retry(
            cfg.migration_timeout_ticks,
            cfg.migration_max_retries,
            cfg.migration_backoff_ticks,
        );
        migrator.set_telemetry(telemetry.clone());
        Simulation {
            mds: (0..cfg.n_mds)
                .map(|r| {
                    MdsState::new(
                        cfg.mds_capacities
                            .get(r)
                            .copied()
                            .unwrap_or(cfg.mds_capacity),
                    )
                })
                .collect(),
            migrator,
            latency: LatencyHistogram::new(),
            resident,
            cohorts: CohortSet::new(groups),
            balancer,
            ns,
            map,
            tick: 0,
            epochs: Vec::new(),
            telemetry,
            fault_cursor: 0,
            pending_faults: Vec::new(),
            down_until: vec![None; cfg.n_mds],
            saved_capacity: vec![0.0; cfg.n_mds],
            limp: vec![None; cfg.n_mds],
            report_loss_until: vec![0; cfg.n_mds],
            journal_base: (0, 0, 0),
            costs_scratch: Vec::new(),
            auth_cache: lunule_namespace::AuthorityCache::new(),
            op_ledger: crate::tick_ledger::TickOpLedger::default(),
            #[cfg(feature = "strict-invariants")]
            checker: InvariantChecker::new(lunule_core::IfModelConfig {
                mds_capacity: cfg.mds_capacity,
                ..lunule_core::IfModelConfig::default()
            }),
            cfg,
        }
    }

    /// Subtrees currently inside their commit window, paired with the
    /// exporter their authority must keep resolving to until the flip.
    #[cfg(feature = "strict-invariants")]
    fn frozen_subtrees(&self) -> Vec<(lunule_namespace::FragKey, MdsRank)> {
        self.migrator
            .jobs()
            .iter()
            .filter(|j| j.is_committing())
            .map(|j| (j.subtree, j.from))
            .collect()
    }

    /// Cheap per-tick audit: subtree-map well-formedness plus frozen-subtree
    /// stability. O(map entries), so safe to run every simulated second.
    #[cfg(feature = "strict-invariants")]
    fn audit_tick(&mut self) {
        let frozen = self.frozen_subtrees();
        self.checker.check_subtree_map(&self.ns, &self.map);
        self.checker
            .check_frozen_subtrees(&self.ns, &self.map, &frozen);
        let down: Vec<bool> = self.down_until.iter().map(Option::is_some).collect();
        self.checker.check_down_ranks(&self.map, &down);
        self.checker.assert_clean();
    }

    /// Full per-epoch audit: everything in [`Simulation::audit_tick`] plus
    /// fragment-partition coverage, migration conservation, and the
    /// IF-model laws on the epoch's load vector.
    #[cfg(feature = "strict-invariants")]
    fn audit_epoch(&mut self, iops: &[f64]) {
        let frozen = self.frozen_subtrees();
        self.checker
            .audit(&self.ns, &self.map, self.mds.len(), &frozen);
        self.checker.check_if_model(iops, &self.cfg.mds_capacities);
        // Migration lifecycle ledger: started == committed + abandoned +
        // in-flight, and — when a telemetry journal is kept — its event
        // counts must agree with the engine's counters.
        let c = self.migrator.counters();
        let journal = self.telemetry.is_enabled().then(|| {
            (
                self.journal_base.0 + self.telemetry.count_kind("migration_start"),
                self.journal_base.1 + self.telemetry.count_kind("migration_commit"),
                self.journal_base.2 + self.telemetry.count_kind("migration_abandon"),
            )
        });
        self.checker.check_migration_ledger(
            c.started_jobs,
            c.completed_jobs,
            c.abandoned_jobs,
            self.migrator.in_flight(),
            journal,
        );
        // Cohort model: member conservation against the configured client
        // total and the id-interval partition's integrity. The checker
        // re-derives these from plain data rather than trusting
        // `CohortSet::check_invariants` — an independent implementation is
        // the point of the audit.
        let set = &self.cohorts;
        let counts: Vec<u64> = set.cohorts.iter().map(|c| c.count).collect();
        let ids: Vec<usize> = set.cohorts.iter().map(|c| c.state.id).collect();
        let intervals: Vec<(usize, usize, usize)> = set
            .intervals
            .iter()
            .map(|iv| (iv.start, iv.len, iv.cohort))
            .collect();
        self.checker
            .check_cohort_conservation(&counts, None, usize_to_u64(set.n_clients()));
        self.checker
            .check_cohort_partition(&intervals, &counts, &ids, set.n_clients());
        self.checker.assert_clean();
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Number of MDS ranks currently in the cluster.
    pub fn n_mds(&self) -> usize {
        self.mds.len()
    }

    /// The namespace being served (grows under create workloads).
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// The live partition map.
    pub fn subtree_map(&self) -> &SubtreeMap {
        &self.map
    }

    /// Adds one MDS rank to the cluster (Fig. 12a's expansion events).
    pub fn add_mds(&mut self) {
        let rank = usize_to_u32(self.mds.len());
        self.mds.push(MdsState::new(self.cfg.mds_capacity));
        self.resident.push(0);
        self.down_until.push(None);
        self.saved_capacity.push(0.0);
        self.limp.push(None);
        self.report_loss_until.push(0);
        self.telemetry.emit(|| Event::MdsAdd { rank });
    }

    /// Resident (authoritative) inode count per rank.
    pub fn resident_inodes(&self) -> &[u64] {
        &self.resident
    }

    /// The migrator's lifecycle counters (started/committed/abandoned
    /// ledger plus migrated-inode totals).
    pub fn migration_counters(&self) -> MigrationCounters {
        self.migrator.counters()
    }

    /// The telemetry handle this simulation journals into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Drains MDS `rank`: every subtree it is authoritative for fails over
    /// to the surviving ranks (least-loaded first), in-flight migrations
    /// touching it are abandoned, and its capacity drops to zero so it
    /// serves nothing further. Models planned decommission or failure with
    /// instant journal replay — an extension beyond the paper, which only
    /// grows the cluster.
    ///
    /// Rank indices stay stable (CephFS ranks are also stable identifiers);
    /// the drained rank simply goes dark in the per-epoch series.
    pub fn drain_mds(&mut self, rank: MdsRank) {
        assert!(rank.index() < self.mds.len(), "no such rank");
        // Zero the capacity first so the fail-over sees this rank as dead
        // and never picks it as a survivor.
        self.mds[rank.index()].capacity = 0.0;
        self.mds[rank.index()].budget = 0.0;
        let subtrees_failed_over = self.fail_over_subtrees(rank);
        self.telemetry.emit(|| Event::MdsDrain {
            rank: u32::from(rank.0),
            subtrees_failed_over,
        });
    }

    /// Re-homes every subtree `rank` is authoritative for onto the live
    /// survivors, abandoning in-flight migrations that touch the rank.
    ///
    /// Placement is load-aware: each subtree root (largest first) goes to
    /// the survivor with the lowest estimated load, where a survivor's
    /// load is its observed served rate and each re-homed subtree adds the
    /// failed rank's rate proportionally to the subtree's inode count.
    /// Ties break toward the lowest rank index, keeping the assignment
    /// fully deterministic. Returns how many subtrees were re-homed.
    fn fail_over_subtrees(&mut self, rank: MdsRank) -> u64 {
        self.migrator.abandon_jobs_touching(rank);
        let survivors: Vec<MdsRank> = (0..self.mds.len())
            .filter(|r| *r != rank.index() && self.mds[*r].capacity > 0.0)
            .map(MdsRank::from_index)
            .collect();
        assert!(!survivors.is_empty(), "no live rank to fail over to");
        // Subtree roots to move, largest first; deterministic order via
        // (inode count desc, dir, frag).
        let mut roots: Vec<(FragKey, u64)> = self
            .map
            .subtree_roots_of(rank)
            .into_iter()
            .map(|k| {
                let n = usize_to_u64(self.ns.subtree_inode_count(k.dir, &k.frag));
                (k, n)
            })
            .collect();
        roots.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(a.0.dir.cmp(&b.0.dir))
                .then(a.0.frag.cmp(&b.0.frag))
        });
        let elapsed = u64_to_f64(self.tick.max(1));
        let failed_rate = u64_to_f64(self.mds[rank.index()].served_total) / elapsed;
        let failing_inodes: u64 = roots.iter().map(|(_, n)| *n).sum();
        let rate_per_inode = failed_rate / u64_to_f64(failing_inodes.max(1));
        let mut est: Vec<f64> = survivors
            .iter()
            .map(|s| u64_to_f64(self.mds[s.index()].served_total) / elapsed)
            .collect();
        let argmin = |est: &[f64]| {
            let mut best = 0usize;
            for (i, e) in est.iter().enumerate() {
                if *e < est[best] {
                    best = i;
                }
            }
            best
        };
        let mut failed_over = 0u64;
        for (key, n) in &roots {
            let best = argmin(&est);
            self.map.set_authority(*key, survivors[best]);
            est[best] += u64_to_f64(*n) * rate_per_inode;
            failed_over += 1;
        }
        // If the failed rank held the implicit root subtree, re-point the
        // root default at the least-loaded survivor — the default cannot be
        // shadowed for `/` itself, so it must be rewritten, not overlaid.
        if self.map.root_rank() == rank {
            self.map.set_root_rank(survivors[argmin(&est)]);
            failed_over += 1;
        }
        self.map.simplify(&self.ns);
        // A dead rank cannot even answer redirects: evict it from every
        // client's cache so the next access pays a fresh traversal instead
        // of stalling against a zero-capacity rank forever.
        self.cohorts
            .for_each_state_mut(|st, _| st.forget_rank(rank));
        // Failover rewrote authorities wholesale; recompute residency.
        self.resident = self
            .map
            .inode_counts(&self.ns, self.mds.len())
            .into_iter()
            .map(usize_to_u64)
            .collect();
        failed_over
    }

    /// The fault phase of a tick: injects every scheduled fault whose tick
    /// the clock has reached, then the operator-queued ones, then brings
    /// ranks whose outage has elapsed back online.
    fn apply_fault_events(&mut self, tick: u64) {
        while let Some(event) = self.cfg.faults.events().get(self.fault_cursor).copied() {
            if event.at_tick > tick {
                break;
            }
            self.fault_cursor += 1;
            self.inject_fault(event.kind, tick);
        }
        for kind in std::mem::take(&mut self.pending_faults) {
            self.inject_fault(kind, tick);
        }
        self.recover_ranks(tick);
    }

    /// Applies one fault. Invalid targets (unknown rank, already-down rank,
    /// last live rank for a crash) are skipped silently — seeded schedules
    /// draw ranks blind and the simulator is the safety net.
    fn inject_fault(&mut self, kind: FaultKind, tick: u64) {
        let rank = kind.rank();
        if rank.index() >= self.mds.len() {
            return;
        }
        if self.down_until[rank.index()].is_some() {
            return;
        }
        if let FaultKind::Crash { .. } = kind {
            let has_live_survivor = self
                .mds
                .iter()
                .enumerate()
                .any(|(i, m)| i != rank.index() && m.capacity > 0.0);
            if !has_live_survivor {
                return;
            }
        }
        self.telemetry.counter_add("faults.injected", 1);
        self.telemetry.emit(|| Event::FaultInjected {
            kind: kind.label().to_string(),
            rank: u32::from(rank.0),
            param: kind.param(),
        });
        match kind {
            FaultKind::Crash { rank, down_ticks } => {
                self.telemetry.emit(|| Event::RankCrashed {
                    rank: u32::from(rank.0),
                    down_ticks,
                });
                self.saved_capacity[rank.index()] = self.mds[rank.index()].capacity;
                self.down_until[rank.index()] = Some((tick.saturating_add(down_ticks), tick));
                self.mds[rank.index()].capacity = 0.0;
                self.mds[rank.index()].budget = 0.0;
                self.fail_over_subtrees(rank);
            }
            FaultKind::Limp {
                rank,
                factor,
                duration_ticks,
            } => {
                self.limp[rank.index()] = Some((factor, tick.saturating_add(duration_ticks)));
            }
            FaultKind::ReportLoss { rank, epochs } => {
                let until = tick.saturating_add(epochs.saturating_mul(self.cfg.epoch_secs));
                let slot = &mut self.report_loss_until[rank.index()];
                *slot = (*slot).max(until);
            }
            FaultKind::MigrationStall {
                rank,
                duration_ticks,
            } => {
                self.migrator
                    .set_exporter_stall(rank, tick.saturating_add(duration_ticks));
            }
        }
    }

    /// Brings crashed ranks whose outage elapsed back online. A recovered
    /// rank rejoins *empty* (its subtrees failed over at crash time) with
    /// its original capacity; the balancer re-fills it over the following
    /// epochs.
    fn recover_ranks(&mut self, tick: u64) {
        for i in 0..self.mds.len() {
            let Some((recover_at, crashed_at)) = self.down_until[i] else {
                continue;
            };
            if tick < recover_at {
                continue;
            }
            self.down_until[i] = None;
            self.mds[i].capacity = self.saved_capacity[i];
            self.telemetry.counter_add("faults.recovered", 1);
            self.telemetry.emit(|| Event::RankRecovered {
                rank: usize_to_u32(i),
                down_ticks: tick.saturating_sub(crashed_at),
            });
        }
    }

    /// Per-rank crash status (`true` = currently down).
    pub fn down_ranks(&self) -> Vec<bool> {
        self.down_until.iter().map(Option::is_some).collect()
    }

    /// True when `rank` is currently crashed.
    pub fn is_rank_down(&self, rank: MdsRank) -> bool {
        self.down_until
            .get(rank.index())
            .map(Option::is_some)
            .unwrap_or(false)
    }

    /// Migration jobs the ledger counts as in flight: transferring,
    /// committing, or parked awaiting a retry.
    pub fn inflight_migrations(&self) -> u64 {
        self.migrator.in_flight()
    }

    /// Adds clients mid-run; they start issuing on the next tick (Fig. 12b's
    /// staged client arrival).
    pub fn add_clients(&mut self, streams: Vec<Box<dyn OpStream>>) {
        let count = usize_to_u64(streams.len());
        let window = self.cfg.data_path.map(|dp| dp.client_window).unwrap_or(0);
        for s in streams {
            let mut c = Client::new(self.cohorts.n_clients(), s, self.tick);
            c.cache_cap = self.cfg.client_cache_cap;
            c.data_window = window;
            self.cohorts.append_group(c, 1);
        }
        self.telemetry.emit(|| Event::ClientsAdd { count });
    }

    /// True once every client has drained its stream and data debt.
    pub fn all_done(&self) -> bool {
        self.cohorts.all_done()
    }

    /// Runs until `deadline` (simulated seconds) or until all clients are
    /// done when `stop_when_done` is set.
    pub fn run_until(&mut self, deadline: u64) {
        while self.tick < deadline.min(self.cfg.duration_secs) {
            if self.cfg.stop_when_done && self.all_done() {
                break;
            }
            self.step_tick();
        }
    }

    /// Advances the simulation by exactly one tick, honoring the same stop
    /// conditions as [`Simulation::run_until`]: returns `false` (without
    /// stepping) once the configured duration is reached or, under
    /// `stop_when_done`, once every client has drained. A loop of `step()`
    /// calls is therefore tick-for-tick identical to one `run_until` over
    /// the full duration — the daemon's pacing layer relies on this.
    pub fn step(&mut self) -> bool {
        if self.tick >= self.cfg.duration_secs {
            return false;
        }
        if self.cfg.stop_when_done && self.all_done() {
            return false;
        }
        self.step_tick();
        true
    }

    /// Queues a fault for injection at the start of the next tick, after
    /// any events the configured schedule has due. Going through the queue
    /// (rather than injecting immediately) stamps the fault's journal
    /// events with the tick it takes effect on, exactly like a scheduled
    /// fault — the daemon's interactive `crash`/`limp`/... commands land
    /// here.
    pub fn queue_fault(&mut self, kind: FaultKind) {
        self.pending_faults.push(kind);
    }

    /// Schedules a crashed rank for recovery at the start of the next tick
    /// regardless of its remaining outage (the operator's `recover`
    /// command). Returns `false` when the rank is unknown or not down.
    pub fn force_recover(&mut self, rank: MdsRank) -> bool {
        let Some(slot) = self.down_until.get_mut(rank.index()) else {
            return false;
        };
        let Some((_, crashed_at)) = *slot else {
            return false;
        };
        *slot = Some((0, crashed_at));
        true
    }

    /// Sets a named balancer tuning knob (see [`Balancer::set_knob`]),
    /// journaling a `knob_set` event when the policy accepts it. Returns
    /// whether the knob was applied.
    pub fn set_balancer_knob(&mut self, name: &str, value: f64) -> bool {
        let applied = self.balancer.set_knob(name, value);
        if applied {
            let name = name.to_string();
            self.telemetry.emit(|| Event::KnobSet { name, value });
        }
        applied
    }

    /// Number of clients attached (including finished ones): cohort
    /// *members*, not cohorts.
    pub fn n_clients(&self) -> usize {
        self.cohorts.n_clients()
    }

    /// Number of distinct client flows currently materialised: live
    /// cohorts, the quantity per-tick work scales with.
    pub fn n_flows(&self) -> usize {
        self.cohorts.n_cohorts()
    }

    /// Total metadata operations completed by all clients so far.
    pub fn total_ops(&self) -> u64 {
        self.cohorts.total_ops()
    }

    /// The configuration this simulation was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Runs the whole configured duration and returns the results.
    pub fn run(mut self) -> RunResult {
        self.run_until(self.cfg.duration_secs);
        self.finish()
    }

    /// Finalises the run: flushes a partial epoch and assembles results.
    pub fn finish(mut self) -> RunResult {
        if self.mds.iter().any(|m| m.epoch_requests() > 0) {
            self.close_epoch();
        }
        RunResult {
            balancer: self.balancer.name().to_string(),
            per_mds_requests_total: self.mds.iter().map(|m| m.served_total).collect(),
            per_mds_forwards_total: self.mds.iter().map(|m| m.forwards_total).collect(),
            client_completion_secs: self.cohorts.completion_expanded(),
            duration_secs: self.tick,
            total_ops: self.total_ops(),
            final_inodes: self.ns.len(),
            rejected_choices: self.migrator.counters().rejected_choices,
            latency: self.latency,
            epochs: self.epochs,
        }
    }

    /// One simulated second.
    fn step_tick(&mut self) {
        let tick = self.tick;
        // Telemetry timestamps derive from the simulated clock, never wall
        // time, so journals from same-seed runs are byte-identical.
        self.telemetry.begin_tick(tick, || Event::TickStart);

        // 0. Faults due this tick, then recoveries.
        self.apply_fault_events(tick);
        // 1. Budgets refill; migrations progress and drain them.
        self.refill_budgets(tick);
        self.step_migrations(tick);

        // 2. Data-path progress frees blocked clients.
        if let Some(dp) = self.cfg.data_path {
            cohort_datapath_step(&mut self.cohorts, dp.osd_bandwidth);
        }
        self.cohort_tick_reset(tick);

        // 3. Closed-loop issue rounds: one op per client per round, rotating
        // the starting client for fairness, until nobody can make progress.
        self.cohort_issue_rounds(tick);

        // The tick's served-op metrics reach telemetry as one batch, so
        // every between-tick reader sees fully settled totals.
        self.op_ledger.flush(&self.telemetry);

        // 4. Epoch boundary: stats, balancer, plan execution.
        self.tick += 1;
        if self.tick.is_multiple_of(self.cfg.epoch_secs) {
            self.close_epoch();
        }
        #[cfg(feature = "strict-invariants")]
        self.audit_tick();
    }

    /// Refills every rank's per-tick request budget. A rank whose resident
    /// metadata exceeds the memory limit thrashes its cache against the
    /// object store and serves at reduced rate; a limping rank is further
    /// degraded by its fault factor. The two compose multiplicatively.
    fn refill_budgets(&mut self, tick: u64) {
        let limit = self.cfg.mds_memory_inodes;
        for (i, m) in self.mds.iter_mut().enumerate() {
            let mut factor = 1.0;
            if limit > 0 && self.resident.get(i).copied().unwrap_or(0) > limit {
                factor *= self.cfg.memory_thrash_factor;
            }
            if let Some((f, until)) = self.limp[i] {
                if tick < until {
                    factor *= f;
                } else {
                    self.limp[i] = None;
                }
            }
            if factor < 1.0 {
                m.refill_scaled(factor);
            } else {
                m.refill();
            }
        }
    }

    /// Advances in-flight migrations; transfer costs drain MDS budgets.
    fn step_migrations(&mut self, tick: u64) {
        for (rank, cost) in self.migrator.step(&self.ns, &mut self.map, tick) {
            if rank.index() < self.mds.len() {
                self.mds[rank.index()].drain(cost);
            }
        }
        // Cap/session transfer: clients working in a migrated subtree are
        // handed to the importer at commit (no per-client redirect storm).
        // Resident accounting moves with the subtree.
        for job in self.migrator.completed_last_step().to_vec() {
            let ns = &self.ns;
            self.cohorts
                .for_each_state_mut(|st, _| st.apply_migration(ns, &job.subtree, job.to));
            if let Some(r) = self.resident.get_mut(job.from.index()) {
                *r = r.saturating_sub(job.total_inodes);
            }
            if let Some(r) = self.resident.get_mut(job.to.index()) {
                *r += job.total_inodes;
            }
        }
    }

    /// Epoch boundary bookkeeping: record the epoch, consult the balancer,
    /// enqueue its plan.
    fn close_epoch(&mut self) {
        let _span = self.telemetry.span("sim.close_epoch");
        let epoch = usize_to_u64(self.epochs.len());
        let epoch_secs = u64_to_f64(self.cfg.epoch_secs);
        let requests: Vec<u64> = self.mds.iter().map(|m| m.epoch_requests()).collect();
        // A crashed rank files no load report; a report-loss fault drops an
        // otherwise-healthy rank's report on the floor. Either way the
        // balancer sees the rank as missing and falls back to its last
        // known-good figure (see `LunuleBalancer::patch_missing_reports`).
        let missing: Vec<bool> = (0..self.mds.len())
            .map(|i| self.down_until[i].is_some() || self.tick < self.report_loss_until[i])
            .collect();
        let stats = EpochStats::new(epoch, epoch_secs, requests).with_missing(missing);
        let record = EpochRecord {
            migrated_inodes_cum: self.migrator.counters().migrated_inodes,
            forwards_cum: self.mds.iter().map(|m| m.forwards_total).sum(),
            active_clients: self.cohorts.active_members(),
            inflight_migrations: u64_to_usize(self.migrator.in_flight()),
            per_mds_resident_inodes: self.resident.clone(),
            ..EpochRecord::from_stats(&stats, self.tick, self.cfg.mds_capacity)
        };
        if self.telemetry.is_enabled() {
            for (r, iops) in record.per_mds_iops.iter().enumerate() {
                self.telemetry.gauge_set("mds.iops", usize_to_u32(r), *iops);
            }
            for (r, res) in self.resident.iter().enumerate() {
                self.telemetry
                    .gauge_set("mds.resident_inodes", usize_to_u32(r), u64_to_f64(*res));
            }
            for (r, m) in self.mds.iter().enumerate() {
                self.telemetry
                    .gauge_set("mds.utilisation", usize_to_u32(r), m.utilisation());
            }
            self.telemetry
                .gauge_set("clients.active", 0, usize_to_f64(record.active_clients));
            self.telemetry.gauge_set(
                "clients.cache_evictions",
                0,
                u64_to_f64(self.cohorts.evictions_total()),
            );
        }
        let (record_if, record_iops) = (record.imbalance_factor, record.total_iops);
        self.epochs.push(record);

        let mut plan = self.balancer.on_epoch(&self.ns, &self.map, &stats);
        // Never migrate into (or out of) a dead rank: a drained MDS reports
        // zero load, which a capacity-unaware policy reads as spare room.
        plan.exports.retain(|t| {
            let alive = |r: lunule_namespace::MdsRank| {
                self.mds
                    .get(r.index())
                    .map(|m| m.capacity > 0.0)
                    .unwrap_or(false)
            };
            alive(t.from) && alive(t.to)
        });
        let plan_subtrees = usize_to_u64(plan.subtree_count());
        if !plan.is_empty() {
            self.migrator
                .enqueue_plan(&mut self.ns, &self.map, &plan, self.tick);
        }
        self.telemetry.emit(|| Event::EpochClose {
            epoch,
            imbalance_factor: record_if,
            total_iops: record_iops,
            plan_subtrees,
        });
        for m in &mut self.mds {
            m.reset_epoch();
        }
        // Cohorts whose members re-converged (same stream position, cache,
        // debt) merge back into one flow. Epoch close is the natural seam:
        // it bounds within-tick divergence growth without scanning every
        // tick, and runs at a point where no issue round is in flight.
        self.cohorts.merge_equal_states();
        #[cfg(feature = "strict-invariants")]
        {
            let iops = self
                .epochs
                .last()
                .map(|e| e.per_mds_iops.clone())
                .unwrap_or_default();
            self.audit_epoch(&iops);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{FixedStream, MetaOp};
    use lunule_core::{make_balancer, Access, BalancerKind, NoopBalancer};
    use lunule_namespace::InodeId;

    fn tiny_cfg() -> SimConfig {
        SimConfig {
            n_mds: 2,
            mds_capacity: 100.0,
            epoch_secs: 2,
            duration_secs: 20,
            stop_when_done: true,
            migration_bw: 1_000.0,
            migration_freeze_secs: 1,
            migration_op_cost: 0.0,
            client_rate: 50.0,
            client_cache_cap: 256,
            mds_capacities: Vec::new(),
            mds_memory_inodes: 0,
            memory_thrash_factor: 0.25,
            data_path: None,
            seed: 1,
            ..SimConfig::default()
        }
    }

    fn tiny_ns(files: usize) -> (Namespace, Vec<InodeId>) {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "d").unwrap();
        let ids = (0..files)
            .map(|i| ns.create_file(d, &format!("f{i}"), 4).unwrap())
            .collect();
        (ns, ids)
    }

    #[test]
    fn run_serves_all_ops_and_stops_early() {
        let (ns, ids) = tiny_ns(30);
        let streams: Vec<Box<dyn OpStream>> = vec![Box::new(FixedStream::new(ids.clone()))];
        let sim = Simulation::new(tiny_cfg(), ns, Box::new(NoopBalancer), streams);
        let result = sim.run();
        assert_eq!(result.total_ops, 30);
        assert!(result.duration_secs < 20, "should stop when done");
        assert_eq!(result.client_completion_secs.len(), 1);
        assert!(result.client_completion_secs[0].is_some());
        // All ops landed on rank 0 (no balancing).
        assert_eq!(result.per_mds_requests_total[0], 30);
        assert_eq!(result.per_mds_requests_total[1], 0);
    }

    #[test]
    fn capacity_gates_throughput() {
        // One client with rate 50 against capacity 10: 10 ops/tick max.
        let (ns, ids) = tiny_ns(100);
        let cfg = SimConfig {
            mds_capacity: 10.0,
            duration_secs: 4,
            stop_when_done: false,
            ..tiny_cfg()
        };
        let streams: Vec<Box<dyn OpStream>> = vec![Box::new(FixedStream::new(ids))];
        let sim = Simulation::new(cfg, ns, Box::new(NoopBalancer), streams);
        let result = sim.run();
        assert_eq!(result.total_ops, 40, "4 ticks x 10 capacity");
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let (ns, ids) = tiny_ns(50);
            let streams: Vec<Box<dyn OpStream>> = vec![
                Box::new(FixedStream::new(ids.clone())),
                Box::new(FixedStream::new(ids)),
            ];
            Simulation::new(
                tiny_cfg(),
                ns,
                make_balancer(BalancerKind::Lunule, 100.0),
                streams,
            )
            .run()
        };
        let a = build();
        let b = build();
        assert_eq!(a.per_mds_requests_total, b.per_mds_requests_total);
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.epochs.len(), b.epochs.len());
    }

    #[test]
    fn add_mds_grows_cluster() {
        let (ns, ids) = tiny_ns(800);
        let cfg = || SimConfig {
            stop_when_done: false,
            telemetry: Telemetry::enabled(),
            ..tiny_cfg()
        };
        let streams = |ids: &[InodeId]| -> Vec<Box<dyn OpStream>> {
            vec![Box::new(FixedStream::new(ids.to_vec()))]
        };
        let mut sim = Simulation::new(cfg(), ns, Box::new(NoopBalancer), streams(&ids));
        assert_eq!(sim.n_mds(), 2);
        sim.run_until(4);
        sim.add_mds();
        assert_eq!(sim.n_mds(), 3);
        // Leave the added rank as the only one serving, so every later op
        // is counted for a rank the cluster did not start with.
        sim.drain_mds(MdsRank(0));
        sim.drain_mds(MdsRank(1));
        sim.run_until(8);
        let snap = sim.snapshot();
        let served = |tel: &Telemetry| -> Vec<u64> {
            let metrics = tel.snapshot().unwrap().metrics;
            (0..3)
                .map(|r| metrics.counter_get("ops.served", r))
                .collect()
        };
        let pre = served(sim.telemetry());
        sim.run_until(12);
        let all = served(sim.telemetry());
        let result = sim.finish();
        // Later epochs report three ranks.
        assert_eq!(result.epochs.last().unwrap().per_mds_iops.len(), 3);
        assert!(result.per_mds_requests_total[2] > 0);
        assert_eq!(all, result.per_mds_requests_total);

        // A run restored from a snapshot taken after the rank was added
        // counts it too: its served ops continue the original's exactly.
        let mut resumed =
            Simulation::restore(cfg(), Box::new(NoopBalancer), streams(&ids), &snap).unwrap();
        resumed.run_until(12);
        let post = served(resumed.telemetry());
        let stitched: Vec<u64> = pre.iter().zip(&post).map(|(a, b)| a + b).collect();
        assert_eq!(stitched, resumed.finish().per_mds_requests_total);
        assert_eq!(stitched, result.per_mds_requests_total);
    }

    #[test]
    fn add_clients_mid_run() {
        let (ns, ids) = tiny_ns(10);
        let streams: Vec<Box<dyn OpStream>> = vec![Box::new(FixedStream::new(ids.clone()))];
        let mut sim = Simulation::new(
            SimConfig {
                stop_when_done: false,
                duration_secs: 10,
                ..tiny_cfg()
            },
            ns,
            Box::new(NoopBalancer),
            streams,
        );
        sim.run_until(4);
        sim.add_clients(vec![Box::new(FixedStream::new(ids))]);
        sim.run_until(10);
        let result = sim.finish();
        assert_eq!(result.client_completion_secs.len(), 2);
        assert_eq!(result.total_ops, 20);
    }

    #[test]
    fn step_loop_is_tick_identical_to_run_until() {
        let journal = |stepped: bool| {
            let (ns, ids) = tiny_ns(50);
            let streams: Vec<Box<dyn OpStream>> = vec![
                Box::new(FixedStream::new(ids.clone())),
                Box::new(FixedStream::new(ids)),
            ];
            let cfg = SimConfig {
                stop_when_done: false,
                duration_secs: 12,
                telemetry: Telemetry::enabled(),
                ..tiny_cfg()
            };
            let mut sim =
                Simulation::new(cfg, ns, make_balancer(BalancerKind::Lunule, 100.0), streams);
            if stepped {
                while sim.step() {}
            } else {
                sim.run_until(u64::MAX);
            }
            let snap = sim.telemetry().snapshot().unwrap();
            let _ = sim.finish();
            lunule_telemetry::events_jsonl(&snap)
        };
        assert_eq!(
            journal(true),
            journal(false),
            "step loop must equal run_until"
        );
    }

    #[test]
    fn queued_fault_and_forced_recovery() {
        let (ns, ids) = tiny_ns(10);
        let streams: Vec<Box<dyn OpStream>> = vec![Box::new(FixedStream::new(ids))];
        let mut sim = Simulation::new(
            SimConfig {
                stop_when_done: false,
                duration_secs: 50,
                telemetry: Telemetry::enabled(),
                ..tiny_cfg()
            },
            ns,
            Box::new(NoopBalancer),
            streams,
        );
        sim.run_until(3);
        assert!(!sim.force_recover(MdsRank(1)), "rank 1 is not down yet");
        sim.queue_fault(FaultKind::Crash {
            rank: MdsRank(1),
            down_ticks: 1_000,
        });
        assert!(!sim.is_rank_down(MdsRank(1)), "queued, not yet injected");
        sim.step();
        assert!(sim.is_rank_down(MdsRank(1)), "fires at next tick start");
        assert!(sim.force_recover(MdsRank(1)));
        sim.step();
        assert!(
            !sim.is_rank_down(MdsRank(1)),
            "forced recovery beats outage"
        );
        let t = sim.telemetry();
        assert_eq!(t.count_kind("rank_crashed"), 1);
        assert_eq!(t.count_kind("rank_recovered"), 1);
    }

    #[test]
    fn balancer_knob_journals_when_applied() {
        let (ns, ids) = tiny_ns(10);
        let streams: Vec<Box<dyn OpStream>> = vec![Box::new(FixedStream::new(ids))];
        let mut sim = Simulation::new(
            SimConfig {
                telemetry: Telemetry::enabled(),
                ..tiny_cfg()
            },
            ns,
            make_balancer(BalancerKind::Lunule, 100.0),
            streams,
        );
        assert!(sim.set_balancer_knob("if_threshold", 0.2));
        assert!(!sim.set_balancer_knob("not_a_knob", 1.0));
        assert_eq!(sim.telemetry().count_kind("knob_set"), 1);
    }

    #[test]
    fn datapath_delays_completion() {
        let run = |dp: Option<crate::config::DataPathConfig>| {
            let (ns, ids) = tiny_ns(20);
            let cfg = SimConfig {
                data_path: dp,
                duration_secs: 200,
                ..tiny_cfg()
            };
            let streams: Vec<Box<dyn OpStream>> = vec![Box::new(FixedStream::new(ids))];
            Simulation::new(cfg, ns, Box::new(NoopBalancer), streams).run()
        };
        let meta_only = run(None);
        let with_data = run(Some(crate::config::DataPathConfig {
            osd_bandwidth: 8,
            client_window: 0,
        }));
        let jct_meta = meta_only.client_completion_secs[0].unwrap();
        let jct_data = with_data.client_completion_secs[0].unwrap();
        assert!(
            jct_data > jct_meta,
            "data path must lengthen JCT: {jct_meta} vs {jct_data}"
        );
    }

    /// Plans one export of `dir` (whole) from rank 0 to `to` at the first
    /// epoch close, then goes quiet — a deterministic way to get exactly
    /// one migration in flight for the drain-failover tests.
    struct PlanOnce {
        dir: InodeId,
        to: MdsRank,
        planned: bool,
    }

    impl Balancer for PlanOnce {
        fn name(&self) -> &'static str {
            "plan-once"
        }
        fn record_access(&mut self, _ns: &Namespace, _access: Access) {}
        fn on_epoch(
            &mut self,
            _ns: &Namespace,
            _map: &SubtreeMap,
            _stats: &EpochStats,
        ) -> lunule_core::MigrationPlan {
            if self.planned {
                return lunule_core::MigrationPlan::default();
            }
            self.planned = true;
            lunule_core::MigrationPlan {
                exports: vec![lunule_core::ExportTask {
                    from: MdsRank(0),
                    to: self.to,
                    target_amount: 1e9,
                    subtrees: vec![lunule_core::SubtreeChoice {
                        subtree: lunule_namespace::FragKey::whole(self.dir),
                        estimated_load: 1e9,
                    }],
                }],
            }
        }
    }

    /// Builds a 3-rank cluster with one slow migration (100 inodes at 5
    /// inodes/sec) planned at the first epoch close, runs it until the
    /// transfer is mid-flight, and returns the simulation plus the hot
    /// directory being exported.
    fn mid_migration_sim() -> (Simulation, InodeId) {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "d").unwrap();
        let ids: Vec<InodeId> = (0..100)
            .map(|i| ns.create_file(d, &format!("f{i}"), 4).unwrap())
            .collect();
        let cfg = SimConfig {
            n_mds: 3,
            epoch_secs: 2,
            duration_secs: 60,
            stop_when_done: false,
            migration_bw: 5.0,
            telemetry: lunule_telemetry::Telemetry::enabled(),
            ..tiny_cfg()
        };
        let streams: Vec<Box<dyn OpStream>> = vec![Box::new(FixedStream::new(ids))];
        let balancer = Box::new(PlanOnce {
            dir: d,
            to: MdsRank(1),
            planned: false,
        });
        let mut sim = Simulation::new(cfg, ns, balancer, streams);
        sim.run_until(6);
        let c = sim.migration_counters();
        assert_eq!(c.started_jobs, 1, "exactly one job must have started");
        assert_eq!(c.completed_jobs, 0, "5 in/s x 100 inodes is still moving");
        assert_eq!(c.abandoned_jobs, 0);
        (sim, d)
    }

    #[test]
    fn drain_importer_mid_migration_abandons_and_reconciles() {
        let (mut sim, d) = mid_migration_sim();
        sim.drain_mds(MdsRank(1));

        // The in-flight job touching the importer was abandoned, and the
        // conservation ledger still balances: 1 started = 0 + 1 + 0.
        let c = sim.migration_counters();
        assert_eq!(c.abandoned_jobs, 1);
        assert_eq!(c.completed_jobs, 0);
        assert_eq!(
            c.started_jobs,
            c.completed_jobs + c.abandoned_jobs,
            "no job may be in flight after the drain"
        );

        // Authority never resolves to the drained rank.
        assert_ne!(sim.subtree_map().authority(sim.namespace(), d), MdsRank(1));
        for (key, rank) in sim.subtree_map().all_entries() {
            assert_ne!(rank, MdsRank(1), "entry ({key:?}) on the drained rank");
        }

        // Residency was recounted against the rewritten map.
        let expect: Vec<u64> = sim
            .subtree_map()
            .inode_counts(sim.namespace(), sim.n_mds())
            .into_iter()
            .map(usize_to_u64)
            .collect();
        assert_eq!(sim.resident_inodes(), expect.as_slice());
        assert_eq!(sim.resident_inodes()[1], 0);

        // The journal narrates the same story as the counters.
        let tel = sim.telemetry().clone();
        assert_eq!(tel.count_kind("migration_start"), 1);
        assert_eq!(tel.count_kind("migration_abandon"), 1);
        assert_eq!(tel.count_kind("migration_commit"), 0);
        assert_eq!(tel.count_kind("mds_drain"), 1);

        // The cluster keeps serving on the survivors.
        sim.run_until(20);
        let result = sim.finish();
        assert!(result.total_ops > 0);
        assert_eq!(result.per_mds_requests_total[1], 0, "dead rank serves none");
    }

    #[test]
    fn drain_exporter_mid_migration_rehomes_root() {
        let (mut sim, d) = mid_migration_sim();
        // Rank 0 is both the exporter and the implicit root authority.
        sim.drain_mds(MdsRank(0));

        let c = sim.migration_counters();
        assert_eq!(c.abandoned_jobs, 1);
        assert_eq!(c.started_jobs, c.completed_jobs + c.abandoned_jobs);

        // The namespace below `/` was re-homed by planting an explicit root
        // entry on a survivor; every op anchor now resolves off rank 0.
        assert_ne!(sim.subtree_map().authority(sim.namespace(), d), MdsRank(0));
        for (_, rank) in sim.subtree_map().all_entries() {
            assert_ne!(rank, MdsRank(0));
        }
        let expect: Vec<u64> = sim
            .subtree_map()
            .inode_counts(sim.namespace(), sim.n_mds())
            .into_iter()
            .map(usize_to_u64)
            .collect();
        assert_eq!(sim.resident_inodes(), expect.as_slice());
        assert!(
            sim.resident_inodes()[0] <= 1,
            "at most the root inode itself may still count against rank 0"
        );

        // Survivors finish the workload.
        sim.run_until(60);
        let result = sim.finish();
        assert!(result.client_completion_secs[0].is_some());
        assert!(
            result.per_mds_requests_total[0] > 0,
            "rank 0 served before it was drained"
        );
    }

    #[test]
    fn scripted_crash_fails_over_then_recovers_empty() {
        let (ns, ids) = tiny_ns(10);
        let cfg = SimConfig {
            stop_when_done: false,
            duration_secs: 20,
            telemetry: lunule_telemetry::Telemetry::enabled(),
            faults: lunule_faults::FaultPlan::new()
                .crash(4, MdsRank(0), 6)
                .build(),
            ..tiny_cfg()
        };
        let streams: Vec<Box<dyn OpStream>> = vec![Box::new(FixedStream::new(ids))];
        let mut sim = Simulation::new(cfg, ns, Box::new(NoopBalancer), streams);

        // Mid-outage: rank 0 is down and owns nothing; the root subtree
        // failed over to the lone survivor.
        sim.run_until(6);
        assert!(sim.is_rank_down(MdsRank(0)));
        assert_eq!(sim.down_ranks(), vec![true, false]);
        for (key, rank) in sim.subtree_map().all_entries() {
            assert_ne!(rank, MdsRank(0), "entry ({key:?}) on the crashed rank");
        }
        assert_eq!(
            sim.resident_inodes()[0],
            0,
            "crashed rank must own nothing, not even the root default"
        );

        // After the outage elapses the rank rejoins — empty, since nothing
        // moves back without a balancer — and the journal narrates both
        // transitions exactly once.
        sim.run_until(14);
        assert!(!sim.is_rank_down(MdsRank(0)));
        assert_eq!(sim.down_ranks(), vec![false, false]);
        let tel = sim.telemetry().clone();
        assert_eq!(tel.count_kind("fault_injected"), 1);
        assert_eq!(tel.count_kind("rank_crashed"), 1);
        assert_eq!(tel.count_kind("rank_recovered"), 1);

        let result = sim.finish();
        assert!(result.total_ops > 0, "survivor kept serving");
    }

    #[test]
    fn crash_of_last_live_rank_is_skipped() {
        let (ns, ids) = tiny_ns(5);
        let cfg = SimConfig {
            n_mds: 1,
            stop_when_done: false,
            duration_secs: 10,
            telemetry: lunule_telemetry::Telemetry::enabled(),
            faults: lunule_faults::FaultPlan::new()
                .crash(2, MdsRank(0), 4)
                .build(),
            ..tiny_cfg()
        };
        let streams: Vec<Box<dyn OpStream>> = vec![Box::new(FixedStream::new(ids))];
        let mut sim = Simulation::new(cfg, ns, Box::new(NoopBalancer), streams);
        sim.run_until(8);
        assert!(!sim.is_rank_down(MdsRank(0)), "sole rank must not crash");
        assert_eq!(sim.telemetry().count_kind("fault_injected"), 0);
        assert!(sim.finish().total_ops > 0);
    }

    #[test]
    fn limp_fault_slows_completion() {
        let run = |faults: lunule_faults::FaultSchedule| {
            let (ns, ids) = tiny_ns(60);
            let cfg = SimConfig {
                n_mds: 1,
                mds_capacity: 10.0,
                client_rate: 1_000.0,
                duration_secs: 200,
                faults,
                ..tiny_cfg()
            };
            let streams: Vec<Box<dyn OpStream>> = vec![Box::new(FixedStream::new(ids))];
            Simulation::new(cfg, ns, Box::new(NoopBalancer), streams)
                .run()
                .client_completion_secs[0]
                .unwrap()
        };
        let healthy = run(lunule_faults::FaultSchedule::empty());
        let limping = run(lunule_faults::FaultPlan::new()
            .limp(1, MdsRank(0), 0.1, 50)
            .build());
        assert!(
            limping > healthy,
            "limp must lengthen JCT: {healthy} vs {limping}"
        );
    }

    /// The kill-anywhere guarantee at the library level: snapshot a run
    /// mid-flight (with a crash fault in progress), restore into a fresh
    /// simulation, continue — and the pre-kill journal concatenated with
    /// the post-restore journal is byte-identical to an uninterrupted run.
    #[test]
    fn snapshot_restore_continues_byte_identically() {
        let cfg = || SimConfig {
            stop_when_done: false,
            duration_secs: 30,
            telemetry: Telemetry::enabled(),
            faults: lunule_faults::FaultPlan::new()
                .crash(8, MdsRank(1), 10)
                .build(),
            ..tiny_cfg()
        };
        let build = |cfg: SimConfig| {
            let (ns, ids) = tiny_ns(300);
            let streams: Vec<Box<dyn OpStream>> = vec![
                Box::new(FixedStream::new(ids.clone())),
                Box::new(FixedStream::new(ids)),
            ];
            Simulation::new(cfg, ns, make_balancer(BalancerKind::Lunule, 100.0), streams)
        };
        let mut reference = build(cfg());
        reference.run_until(30);
        let full = lunule_telemetry::events_jsonl(&reference.telemetry().snapshot().unwrap());

        let mut first = build(cfg());
        first.run_until(12);
        let snap = first.snapshot();
        assert_eq!(snap.tick, 12);
        let pre = lunule_telemetry::events_jsonl(&first.telemetry().snapshot().unwrap());
        drop(first); // the "kill"

        // Streams are rebuilt exactly as the original run built them; the
        // namespace they were built against is discarded in favour of the
        // snapshot's.
        let (_, ids) = tiny_ns(300);
        let streams: Vec<Box<dyn OpStream>> = vec![
            Box::new(FixedStream::new(ids.clone())),
            Box::new(FixedStream::new(ids)),
        ];
        let mut resumed = Simulation::restore(
            cfg(),
            make_balancer(BalancerKind::Lunule, 100.0),
            streams,
            &snap,
        )
        .unwrap();
        assert_eq!(resumed.now(), 12);
        assert!(resumed.is_rank_down(MdsRank(1)), "mid-outage crash state");
        resumed.run_until(30);
        let post = lunule_telemetry::events_jsonl(&resumed.telemetry().snapshot().unwrap());
        assert_eq!(
            format!("{pre}{post}"),
            full,
            "stitched journal must equal the uninterrupted run's"
        );
        assert_eq!(
            resumed.finish().per_mds_requests_total,
            reference.finish().per_mds_requests_total
        );
    }

    #[test]
    fn snapshot_restore_snapshot_is_byte_stable() {
        for enabled in [false, true] {
            let cfg = || SimConfig {
                stop_when_done: false,
                duration_secs: 20,
                telemetry: if enabled {
                    Telemetry::enabled()
                } else {
                    Telemetry::disabled()
                },
                ..tiny_cfg()
            };
            let streams = || -> Vec<Box<dyn OpStream>> {
                let (_, ids) = tiny_ns(60);
                vec![Box::new(FixedStream::new(ids))]
            };
            let (ns, _) = tiny_ns(60);
            let mut sim = Simulation::new(
                cfg(),
                ns,
                make_balancer(BalancerKind::Lunule, 100.0),
                streams(),
            );
            sim.run_until(7);
            let s1 = sim.snapshot();
            let resumed = Simulation::restore(
                cfg(),
                make_balancer(BalancerKind::Lunule, 100.0),
                streams(),
                &s1,
            )
            .unwrap();
            let s2 = resumed.snapshot();
            assert_eq!(
                s1.to_bytes(),
                s2.to_bytes(),
                "snapshot -> restore -> snapshot must be byte-stable (telemetry={enabled})"
            );
        }
    }

    #[test]
    fn restore_rejects_mismatched_identity() {
        use lunule_snapshot::SnapshotError;
        let (ns, ids) = tiny_ns(20);
        let streams: Vec<Box<dyn OpStream>> = vec![Box::new(FixedStream::new(ids.clone()))];
        let mut sim = Simulation::new(tiny_cfg(), ns, Box::new(NoopBalancer), streams);
        sim.run_until(3);
        let snap = sim.snapshot();

        let reseeded = SimConfig {
            seed: 999,
            ..tiny_cfg()
        };
        let reject = |r: Result<Simulation, SnapshotError>| match r {
            Ok(_) => panic!("restore must be refused"),
            Err(e) => e,
        };
        let err = reject(Simulation::restore(
            reseeded,
            Box::new(NoopBalancer),
            vec![Box::new(FixedStream::new(ids.clone()))],
            &snap,
        ));
        assert!(matches!(err, SnapshotError::DigestMismatch { .. }));

        let err = reject(Simulation::restore(
            tiny_cfg(),
            make_balancer(BalancerKind::Lunule, 100.0),
            vec![Box::new(FixedStream::new(ids.clone()))],
            &snap,
        ));
        assert!(
            matches!(
                err,
                SnapshotError::Decode {
                    section: "balancer",
                    ..
                }
            ),
            "wrong policy must be refused: {err}"
        );

        let err = reject(Simulation::restore(
            tiny_cfg(),
            Box::new(NoopBalancer),
            Vec::new(),
            &snap,
        ));
        assert!(
            matches!(
                err,
                SnapshotError::Decode {
                    section: "cohorts",
                    ..
                }
            ),
            "stream count must match: {err}"
        );
    }

    #[test]
    fn create_ops_grow_namespace() {
        struct Creator {
            parent: InodeId,
            left: usize,
            created: Vec<InodeId>,
        }
        impl OpStream for Creator {
            fn next_op(&mut self, _ns: &Namespace) -> Option<MetaOp> {
                if self.left == 0 {
                    return None;
                }
                self.left -= 1;
                Some(MetaOp::Create {
                    parent: self.parent,
                    size: 0,
                })
            }
            fn on_created(&mut self, id: InodeId) {
                self.created.push(id);
            }
        }
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "out").unwrap();
        let before = ns.len();
        let streams: Vec<Box<dyn OpStream>> = vec![Box::new(Creator {
            parent: d,
            left: 25,
            created: Vec::new(),
        })];
        let sim = Simulation::new(tiny_cfg(), ns, Box::new(NoopBalancer), streams);
        let result = sim.run();
        assert_eq!(result.total_ops, 25);
        assert_eq!(result.final_inodes, before + 25);
    }
}
