//! The Migrator: executes migration plans with real transfer costs.
//!
//! CephFS ships subtrees with a two-phase protocol: the exporter freezes and
//! packages the subtree, streams it to the importer, and authority flips at
//! commit. The two properties of that protocol that shape the paper's
//! findings are (a) a transfer takes *time* proportional to its inode count,
//! during which load stays on the exporter (migration lag — the root of the
//! ping-pong effect), and (b) the transfer consumes MDS resources that
//! foreground requests then cannot use. Both are modelled here; the final
//! commit window additionally freezes the subtree (ops targeting it stall).

use crate::config::SimConfig;
use lunule_core::{subtrees_overlap, MigrationPlan};
use lunule_namespace::{Frag, FragKey, MdsRank, Namespace, SubtreeMap};
use lunule_telemetry::{Event, Telemetry};
use lunule_util::convert::{f64_to_u64, u64_to_f64, usize_to_f64, usize_to_u64};

/// Phase of one in-flight migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Inodes streaming from exporter to importer.
    Transferring,
    /// Final commit: subtree frozen until the stored tick.
    Committing { until: u64 },
}

/// One in-flight subtree migration.
#[derive(Clone, Debug)]
pub struct MigrationJob {
    /// Source rank.
    pub from: MdsRank,
    /// Destination rank.
    pub to: MdsRank,
    /// The migrating subtree.
    pub subtree: FragKey,
    /// Inodes the subtree contained when the job started.
    pub total_inodes: u64,
    /// Inodes shipped so far.
    pub moved: u64,
    /// Tick the job was enqueued at (for commit-latency telemetry).
    pub started_at: u64,
    /// Retry attempts already consumed (0 on a job's first run).
    pub attempt: u32,
    phase: Phase,
    /// Tick by which the transfer must finish or time out
    /// (`u64::MAX` = no deadline).
    deadline: u64,
}

impl MigrationJob {
    /// True once the job entered its freeze/commit window.
    pub fn is_committing(&self) -> bool {
        matches!(self.phase, Phase::Committing { .. })
    }
}

/// Counters the migrator exposes for reporting (Fig. 4's migrated-inode
/// curves and the invalid-migration analysis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationCounters {
    /// Total inodes whose authority changed, cumulative.
    pub migrated_inodes: u64,
    /// Completed migrations.
    pub completed_jobs: u64,
    /// Subtree choices dropped because the exporter no longer owned them or
    /// they overlapped an in-flight job.
    pub rejected_choices: u64,
    /// Jobs accepted into the transfer pipeline, cumulative. The ledger law
    /// `started == completed + abandoned + in-flight` holds at all times
    /// and is audited by the invariant checker.
    pub started_jobs: u64,
    /// Jobs dropped mid-flight (endpoint drained/failed), cumulative.
    pub abandoned_jobs: u64,
    /// Transfer deadlines blown, cumulative. Each timeout either re-queues
    /// the job with backoff (also counted in `retried_jobs` once it
    /// restarts) or abandons it after the retry budget runs out.
    pub timed_out_jobs: u64,
    /// Timed-out jobs that restarted after their backoff, cumulative.
    pub retried_jobs: u64,
}

/// A timed-out job parked until its backoff elapses. Parked jobs still
/// count as in-flight for the migration ledger.
#[derive(Clone, Debug)]
struct RetryEntry {
    job: MigrationJob,
    /// Tick the job becomes eligible to restart.
    ready_at: u64,
    /// The backoff that was applied, for telemetry.
    backoff: u64,
}

/// The migration engine.
#[derive(Clone, Debug)]
pub struct Migrator {
    jobs: Vec<MigrationJob>,
    bw_per_exporter: f64,
    freeze_secs: u64,
    op_cost_per_inode: f64,
    counters: MigrationCounters,
    /// Jobs whose authority flipped during the last `step` call — consumed
    /// by the simulator for client cap transfer and resident accounting.
    completed_last_step: Vec<MigrationJob>,
    /// Journal for migration lifecycle events; disabled by default.
    telemetry: Telemetry,
    /// Transfer deadline in ticks (0 = timeouts disabled).
    timeout_ticks: u64,
    /// Retry budget per job before a timed-out transfer is abandoned.
    max_retries: u32,
    /// Base backoff; doubles per attempt (`backoff << (attempt-1)`).
    backoff_ticks: u64,
    /// Timed-out jobs waiting out their backoff.
    retry_queue: Vec<RetryEntry>,
    /// Exporters whose outbound transfers are stalled until the given tick
    /// (fault injection).
    stalls: Vec<(MdsRank, u64)>,
}

impl Migrator {
    /// Builds the engine. `bw_per_exporter` is the inodes/second one
    /// exporter can stream across all of its jobs.
    pub fn new(bw_per_exporter: f64, freeze_secs: u64, op_cost_per_inode: f64) -> Self {
        Migrator {
            jobs: Vec::new(),
            bw_per_exporter,
            freeze_secs,
            op_cost_per_inode,
            counters: MigrationCounters::default(),
            completed_last_step: Vec::new(),
            telemetry: Telemetry::disabled(),
            timeout_ticks: 0,
            max_retries: 0,
            backoff_ticks: 1,
            retry_queue: Vec::new(),
            stalls: Vec::new(),
        }
    }

    /// Builds the engine a simulation configured with `cfg` runs: its
    /// bandwidth, freeze window and per-inode cost, its retry policy, and
    /// `telemetry` as the lifecycle journal.
    pub(crate) fn from_config(cfg: &SimConfig, telemetry: &Telemetry) -> Self {
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
        migrator.telemetry = telemetry.clone();
        migrator
    }

    /// Enables transfer deadlines: a job still transferring `timeout_ticks`
    /// after its (re)start times out; it restarts after an exponential
    /// backoff (`backoff_ticks << attempt`, capped) up to `max_retries`
    /// times, then is abandoned. `timeout_ticks == 0` disables the whole
    /// mechanism.
    pub fn configure_retry(&mut self, timeout_ticks: u64, max_retries: u32, backoff_ticks: u64) {
        self.timeout_ticks = timeout_ticks;
        self.max_retries = max_retries;
        self.backoff_ticks = backoff_ticks.max(1);
    }

    /// Stalls `rank`'s outbound transfers (zero export progress) until
    /// `until_tick`. Extends any existing stall rather than shortening it.
    pub fn set_exporter_stall(&mut self, rank: MdsRank, until_tick: u64) {
        match self.stalls.iter_mut().find(|(r, _)| *r == rank) {
            Some((_, until)) => *until = (*until).max(until_tick),
            None => self.stalls.push((rank, until_tick)),
        }
    }

    /// Jobs the ledger counts as in flight: actively transferring or
    /// committing, plus timed-out jobs waiting out their backoff.
    pub fn in_flight(&self) -> u64 {
        usize_to_u64(self.jobs.len() + self.retry_queue.len())
    }

    /// Jobs whose authority flipped during the most recent
    /// [`Migrator::step`].
    pub fn completed_last_step(&self) -> &[MigrationJob] {
        &self.completed_last_step
    }

    /// Reporting counters.
    pub fn counters(&self) -> MigrationCounters {
        self.counters
    }

    /// In-flight jobs.
    pub fn jobs(&self) -> &[MigrationJob] {
        &self.jobs
    }

    /// Drops every in-flight job whose exporter or importer is `rank` —
    /// used when a rank is drained/fails. Abandoned transfers count as
    /// rejected choices, not migrations.
    pub fn abandon_jobs_touching(&mut self, rank: MdsRank) {
        let touches = |j: &MigrationJob| j.from == rank || j.to == rank;
        let mut dropped = Vec::new();
        self.jobs.retain(|j| {
            let drop = touches(j);
            if drop {
                dropped.push(j.clone());
            }
            !drop
        });
        self.retry_queue.retain(|e| {
            let drop = touches(&e.job);
            if drop {
                dropped.push(e.job.clone());
            }
            !drop
        });
        self.abandon(&dropped);
    }

    /// Books `jobs` as abandoned for good: each counts as an abandoned job
    /// and a rejected choice, the `migration.abandoned` counter grows by
    /// their number, and each journals one `MigrationAbandon`, in order.
    /// An empty slice records nothing (a zero `counter_add` would still
    /// create the counter's entry).
    fn abandon(&mut self, jobs: &[MigrationJob]) {
        if jobs.is_empty() {
            return;
        }
        let n = usize_to_u64(jobs.len());
        self.counters.abandoned_jobs += n;
        self.counters.rejected_choices += n;
        self.telemetry.counter_add("migration.abandoned", n);
        for job in jobs {
            self.telemetry.emit(|| Event::MigrationAbandon {
                from: u32::from(job.from.0),
                to: u32::from(job.to.0),
                dir: job.subtree.dir.raw(),
                moved: job.moved,
            });
        }
    }

    /// Accepts a plan at tick `tick`, splitting namespace fragments where
    /// the selector chose a sub-fragment, and rejecting choices that are
    /// stale (exporter no longer authoritative) or overlap an active job.
    pub fn enqueue_plan(
        &mut self,
        ns: &mut Namespace,
        map: &SubtreeMap,
        plan: &MigrationPlan,
        tick: u64,
    ) {
        for task in &plan.exports {
            for choice in &task.subtrees {
                let key = choice.subtree;
                if map.frag_authority(ns, key.dir, &key.frag) != task.from || task.from == task.to {
                    self.counters.rejected_choices += 1;
                    continue;
                }
                if self
                    .jobs
                    .iter()
                    .map(|j| &j.subtree)
                    .chain(self.retry_queue.iter().map(|e| &e.job.subtree))
                    .any(|s| subtrees_overlap(ns, s, &key))
                {
                    self.counters.rejected_choices += 1;
                    continue;
                }
                // Materialise the chosen fragment in the directory's live
                // frag set if the selector split below it.
                if !ensure_frag_live(ns, key, &self.telemetry) {
                    self.counters.rejected_choices += 1;
                    continue;
                }
                let total_inodes = usize_to_u64(ns.subtree_inode_count(key.dir, &key.frag));
                if total_inodes == 0 {
                    self.counters.rejected_choices += 1;
                    continue;
                }
                self.counters.started_jobs += 1;
                self.telemetry.counter_add("migration.started", 1);
                self.telemetry.emit(|| Event::MigrationStart {
                    from: u32::from(task.from.0),
                    to: u32::from(task.to.0),
                    dir: key.dir.raw(),
                    frag_value: key.frag.value(),
                    frag_bits: u32::from(key.frag.bits()),
                    inodes: total_inodes,
                });
                self.jobs.push(MigrationJob {
                    from: task.from,
                    to: task.to,
                    subtree: key,
                    total_inodes,
                    moved: 0,
                    started_at: tick,
                    attempt: 0,
                    phase: Phase::Transferring,
                    deadline: deadline_after(tick, self.timeout_ticks),
                });
            }
        }
    }

    /// Advances all jobs by one tick. Authority flips exactly when a job's
    /// commit window elapses; the subtree map is re-coalesced after any
    /// completion so traversal paths stay as short as CephFS keeps them.
    /// Only the committed entries and the entries their regions enclose
    /// can have become redundant ([`SubtreeMap::simplify_after`]), given a
    /// map with none when the step starts (see
    /// [`lunule_core::Balancer::setup`]).
    /// Returns the per-rank migration op-cost to charge ((rank, cost) pairs
    /// for both endpoints of each active job).
    pub fn step(&mut self, ns: &Namespace, map: &mut SubtreeMap, tick: u64) -> Vec<(MdsRank, f64)> {
        self.completed_last_step.clear();
        self.reactivate_retries(ns, map, tick);
        self.sweep_timeouts(tick);
        let mut charges: Vec<(MdsRank, f64)> = Vec::new();
        // Split bandwidth evenly among each exporter's transferring jobs.
        let mut active_per_exporter: Vec<(MdsRank, usize)> = Vec::new();
        for j in &self.jobs {
            if matches!(j.phase, Phase::Transferring) {
                match active_per_exporter.iter_mut().find(|(r, _)| *r == j.from) {
                    Some((_, n)) => *n += 1,
                    None => active_per_exporter.push((j.from, 1)),
                }
            }
        }
        let freeze = self.freeze_secs;
        let bw = self.bw_per_exporter;
        let op_cost = self.op_cost_per_inode;
        for job in &mut self.jobs {
            match job.phase {
                Phase::Transferring => {
                    // A stalled exporter makes no export progress at all;
                    // long enough stalls blow the transfer deadline and
                    // exercise the retry path.
                    if self
                        .stalls
                        .iter()
                        .any(|(r, until)| *r == job.from && tick < *until)
                    {
                        continue;
                    }
                    let n_active = active_per_exporter
                        .iter()
                        .find(|(r, _)| *r == job.from)
                        .map(|(_, n)| *n)
                        .map_or(1.0, usize_to_f64);
                    let quota = (bw / n_active).max(1.0);
                    let moved_now = f64_to_u64(quota.min(u64_to_f64(job.total_inodes - job.moved)));
                    job.moved += moved_now;
                    let cost = u64_to_f64(moved_now) * op_cost;
                    if cost > 0.0 {
                        charges.push((job.from, cost));
                        charges.push((job.to, cost));
                    }
                    if job.moved >= job.total_inodes {
                        job.phase = Phase::Committing {
                            until: tick + freeze,
                        };
                    }
                }
                Phase::Committing { until } => {
                    if tick >= until {
                        map.set_authority(job.subtree, job.to);
                        self.counters.migrated_inodes += job.total_inodes;
                        self.counters.completed_jobs += 1;
                        let duration_ticks = tick.saturating_sub(job.started_at);
                        self.telemetry.counter_add("migration.committed", 1);
                        self.telemetry
                            .histogram_record("migration.duration_ticks", duration_ticks);
                        self.telemetry.emit(|| Event::MigrationCommit {
                            from: u32::from(job.from.0),
                            to: u32::from(job.to.0),
                            dir: job.subtree.dir.raw(),
                            inodes: job.total_inodes,
                            duration_ticks,
                        });
                        self.completed_last_step.push(job.clone());
                        job.moved = u64::MAX; // mark for sweep
                    }
                }
            }
        }
        self.jobs.retain(|j| j.moved != u64::MAX);
        if !self.completed_last_step.is_empty() {
            let rekeyed: Vec<FragKey> =
                self.completed_last_step.iter().map(|j| j.subtree).collect();
            map.simplify_after(ns, &rekeyed);
        }
        self.stalls.retain(|(_, until)| *until > tick);
        charges
    }

    /// Restarts parked jobs whose backoff elapsed. A restart re-validates
    /// the job against the *current* map and namespace — the world may have
    /// moved on during the backoff — and abandons it if the exporter lost
    /// authority or the subtree emptied out.
    fn reactivate_retries(&mut self, ns: &Namespace, map: &SubtreeMap, tick: u64) {
        if self.retry_queue.is_empty() {
            return;
        }
        let due: Vec<RetryEntry> = {
            let mut due = Vec::new();
            self.retry_queue.retain_mut(|e| {
                if e.ready_at <= tick {
                    due.push(e.clone());
                    false
                } else {
                    true
                }
            });
            due
        };
        for entry in due {
            let mut job = entry.job;
            let still_owned =
                map.frag_authority(ns, job.subtree.dir, &job.subtree.frag) == job.from;
            let total_inodes =
                usize_to_u64(ns.subtree_inode_count(job.subtree.dir, &job.subtree.frag));
            if !still_owned || total_inodes == 0 {
                self.abandon(std::slice::from_ref(&job));
                continue;
            }
            job.total_inodes = total_inodes;
            job.moved = 0;
            job.phase = Phase::Transferring;
            job.deadline = deadline_after(tick, self.timeout_ticks);
            self.counters.retried_jobs += 1;
            self.telemetry.counter_add("migration.retried", 1);
            self.telemetry.emit(|| Event::MigrationRetried {
                from: u32::from(job.from.0),
                to: u32::from(job.to.0),
                dir: job.subtree.dir.raw(),
                attempt: job.attempt,
                backoff_ticks: entry.backoff,
            });
            self.jobs.push(job);
        }
    }

    /// Times out transferring jobs past their deadline: re-queue with
    /// exponential backoff while the retry budget lasts, abandon after.
    fn sweep_timeouts(&mut self, tick: u64) {
        if self.timeout_ticks == 0 {
            return;
        }
        let max_retries = self.max_retries;
        let backoff_base = self.backoff_ticks;
        let mut kept = Vec::with_capacity(self.jobs.len());
        for mut job in std::mem::take(&mut self.jobs) {
            let timed_out = matches!(job.phase, Phase::Transferring) && tick >= job.deadline;
            if !timed_out {
                kept.push(job);
                continue;
            }
            self.counters.timed_out_jobs += 1;
            self.telemetry.counter_add("migration.timed_out", 1);
            self.telemetry.emit(|| Event::MigrationTimedOut {
                from: u32::from(job.from.0),
                to: u32::from(job.to.0),
                dir: job.subtree.dir.raw(),
                attempt: job.attempt,
                moved: job.moved,
            });
            if job.attempt < max_retries {
                job.attempt += 1;
                // Exponential backoff, shift-capped so it cannot overflow.
                let backoff = backoff_base.saturating_mul(1u64 << (job.attempt - 1).min(16));
                self.retry_queue.push(RetryEntry {
                    ready_at: tick.saturating_add(backoff),
                    backoff,
                    job,
                });
            } else {
                self.abandon(std::slice::from_ref(&job));
            }
        }
        self.jobs = kept;
    }

    /// Serialises the engine's dynamic state — in-flight jobs, lifecycle
    /// counters, the retry queue, and active exporter stalls — for a
    /// snapshot section. Bandwidth/freeze/retry tuning is run configuration
    /// and is rebuilt by the restoring constructor, not stored.
    pub(crate) fn save_state(&self, e: &mut lunule_util::codec::Encoder) {
        e.put_seq(&self.jobs, encode_job);
        let c = &self.counters;
        e.put_u64(c.migrated_inodes);
        e.put_u64(c.completed_jobs);
        e.put_u64(c.rejected_choices);
        e.put_u64(c.started_jobs);
        e.put_u64(c.abandoned_jobs);
        e.put_u64(c.timed_out_jobs);
        e.put_u64(c.retried_jobs);
        e.put_seq(&self.retry_queue, |e, r| {
            encode_job(e, &r.job);
            e.put_u64(r.ready_at);
            e.put_u64(r.backoff);
        });
        e.put_seq(&self.stalls, |e, (rank, until)| {
            e.put_u16(rank.0);
            e.put_u64(*until);
        });
    }

    /// Inverse of [`Migrator::save_state`], applied to an engine freshly
    /// built from the same run configuration. `completed_last_step` is
    /// deliberately not restored: snapshots are taken between ticks, after
    /// the simulator consumed the last step's completions.
    pub(crate) fn load_state(
        &mut self,
        d: &mut lunule_util::codec::Decoder<'_>,
    ) -> Result<(), lunule_util::codec::CodecError> {
        self.jobs = d.get_seq("migrator.jobs", decode_job)?;
        self.counters = MigrationCounters {
            migrated_inodes: d.get_u64("migrator.migrated_inodes")?,
            completed_jobs: d.get_u64("migrator.completed_jobs")?,
            rejected_choices: d.get_u64("migrator.rejected_choices")?,
            started_jobs: d.get_u64("migrator.started_jobs")?,
            abandoned_jobs: d.get_u64("migrator.abandoned_jobs")?,
            timed_out_jobs: d.get_u64("migrator.timed_out_jobs")?,
            retried_jobs: d.get_u64("migrator.retried_jobs")?,
        };
        self.retry_queue = d.get_seq("migrator.retry_queue", |d| {
            let job = decode_job(d)?;
            let ready_at = d.get_u64("migrator.retry_ready_at")?;
            let backoff = d.get_u64("migrator.retry_backoff")?;
            Ok(RetryEntry {
                job,
                ready_at,
                backoff,
            })
        })?;
        self.stalls = d.get_seq("migrator.stalls", |d| {
            let rank = MdsRank(d.get_u16("migrator.stall_rank")?);
            let until = d.get_u64("migrator.stall_until")?;
            Ok((rank, until))
        })?;
        self.completed_last_step.clear();
        Ok(())
    }

    /// True when `(dir of ino's path) ∩ (a committing subtree)` is
    /// non-empty — i.e. the op must stall because its metadata is frozen.
    pub fn is_frozen(&self, ns: &Namespace, ino: lunule_namespace::InodeId) -> bool {
        self.jobs
            .iter()
            .any(|j| j.is_committing() && ns.in_dirfrag(j.subtree.dir, &j.subtree.frag, ino))
    }
}

/// Serialises one migration job for the snapshot codec.
fn encode_job(e: &mut lunule_util::codec::Encoder, job: &MigrationJob) {
    e.put_u16(job.from.0);
    e.put_u16(job.to.0);
    e.put_u64(job.subtree.dir.raw());
    job.subtree.frag.encode(e);
    e.put_u64(job.total_inodes);
    e.put_u64(job.moved);
    e.put_u64(job.started_at);
    e.put_u32(job.attempt);
    match job.phase {
        Phase::Transferring => e.put_u8(0),
        Phase::Committing { until } => {
            e.put_u8(1);
            e.put_u64(until);
        }
    }
    e.put_u64(job.deadline);
}

/// Inverse of [`encode_job`]; rejects jobs that have moved more inodes
/// than they contain, empty subtrees, and unknown phase tags.
fn decode_job(
    d: &mut lunule_util::codec::Decoder<'_>,
) -> Result<MigrationJob, lunule_util::codec::CodecError> {
    use lunule_util::codec::CodecError;
    let from = MdsRank(d.get_u16("job.from")?);
    let to = MdsRank(d.get_u16("job.to")?);
    let dir = crate::request::inode_from_raw(d.get_u64("job.dir")?)?;
    let frag = lunule_namespace::Frag::decode(d)?;
    let total_inodes = d.get_u64("job.total_inodes")?;
    let moved = d.get_u64("job.moved")?;
    let started_at = d.get_u64("job.started_at")?;
    let attempt = d.get_u32("job.attempt")?;
    let phase = match d.get_u8("job.phase")? {
        0 => Phase::Transferring,
        1 => Phase::Committing {
            until: d.get_u64("job.commit_until")?,
        },
        _ => return Err(CodecError::Invalid { what: "job.phase" }),
    };
    let deadline = d.get_u64("job.deadline")?;
    if total_inodes == 0 || moved > total_inodes {
        return Err(CodecError::Invalid {
            what: "job.progress",
        });
    }
    Ok(MigrationJob {
        from,
        to,
        subtree: FragKey { dir, frag },
        total_inodes,
        moved,
        started_at,
        attempt,
        phase,
        deadline,
    })
}

/// Transfer deadline for a job (re)starting at `tick`; `u64::MAX` when
/// timeouts are disabled.
fn deadline_after(tick: u64, timeout_ticks: u64) -> u64 {
    if timeout_ticks == 0 {
        u64::MAX
    } else {
        tick.saturating_add(timeout_ticks)
    }
}

/// Splits `key.dir`'s live fragment set until `key.frag` is live, one bit
/// at a time, each split journalled. Returns false when `key.frag` is
/// *shallower* than the live fragmentation (cannot be represented without
/// a merge) — callers treat that as a stale choice.
fn ensure_frag_live(ns: &mut Namespace, key: FragKey, telemetry: &Telemetry) -> bool {
    loop {
        // The live frag containing the target: the target itself once it
        // is live, else the one to split.
        let live = match ns.frag_set(key.dir) {
            None => Some(Frag::root()),
            Some(set) => set
                .frags()
                .iter()
                .find(|f| f.contains_frag(&key.frag))
                .copied(),
        };
        let Some(parent) = live else {
            return false;
        };
        if parent == key.frag {
            return true;
        }
        // A split of a frag we just observed live can only fail if the
        // set was mutated under us; treat that as a stale choice too.
        if ns.split_frag(key.dir, &parent, 1).is_err() {
            return false;
        }
        telemetry.emit(|| Event::FragSplit {
            dir: key.dir.raw(),
            value: parent.value(),
            bits: u32::from(parent.bits()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lunule_core::{ExportTask, SubtreeChoice};
    use lunule_namespace::{Frag, InodeId};

    fn fixture() -> (Namespace, SubtreeMap, InodeId) {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "d").unwrap();
        for i in 0..100 {
            ns.create_file(d, &format!("f{i}"), 1).unwrap();
        }
        (ns, SubtreeMap::new(MdsRank(0)), d)
    }

    fn plan_for(d: InodeId, from: u16, to: u16) -> MigrationPlan {
        MigrationPlan {
            exports: vec![ExportTask {
                from: MdsRank(from),
                to: MdsRank(to),
                target_amount: 100.0,
                subtrees: vec![SubtreeChoice {
                    subtree: FragKey::whole(d),
                    estimated_load: 100.0,
                }],
            }],
        }
    }

    #[test]
    fn transfer_takes_time_and_flips_authority() {
        let (mut ns, mut map, d) = fixture();
        // 100 inodes at 30 inodes/sec -> 4 ticks transfer + 1 freeze.
        let mut mig = Migrator::new(30.0, 1, 0.0);
        mig.enqueue_plan(&mut ns, &map, &plan_for(d, 0, 1), 0);
        assert_eq!(mig.jobs().len(), 1);
        let mut flipped_at = None;
        for tick in 0..10u64 {
            mig.step(&ns, &mut map, tick);
            if map.frag_authority(&ns, d, &Frag::root()) == MdsRank(1) {
                flipped_at = Some(tick);
                break;
            }
        }
        let t = flipped_at.expect("authority must eventually flip");
        assert!(t >= 4, "100/30 inodes takes >= 4 ticks, flipped at {t}");
        assert_eq!(mig.counters().migrated_inodes, 100);
        assert_eq!(mig.counters().completed_jobs, 1);
    }

    #[test]
    fn stale_choice_rejected() {
        let (mut ns, map, d) = fixture();
        let mut mig = Migrator::new(1e9, 0, 0.0);
        // Exporter 1 does not own the subtree (rank 0 does).
        mig.enqueue_plan(&mut ns, &map, &plan_for(d, 1, 2), 0);
        assert!(mig.jobs().is_empty());
        assert_eq!(mig.counters().rejected_choices, 1);
    }

    #[test]
    fn overlapping_choice_rejected() {
        let (mut ns, map, d) = fixture();
        let mut mig = Migrator::new(1.0, 1, 0.0);
        mig.enqueue_plan(&mut ns, &map, &plan_for(d, 0, 1), 0);
        mig.enqueue_plan(&mut ns, &map, &plan_for(d, 0, 2), 0);
        assert_eq!(mig.jobs().len(), 1);
        assert_eq!(mig.counters().rejected_choices, 1);
    }

    #[test]
    fn sub_fragment_choice_splits_live_set() {
        let (mut ns, map, d) = fixture();
        let (left, _) = Frag::root().split_in_two();
        let plan = MigrationPlan {
            exports: vec![ExportTask {
                from: MdsRank(0),
                to: MdsRank(1),
                target_amount: 50.0,
                subtrees: vec![SubtreeChoice {
                    subtree: FragKey { dir: d, frag: left },
                    estimated_load: 50.0,
                }],
            }],
        };
        let mut mig = Migrator::new(1e9, 0, 0.0);
        mig.enqueue_plan(&mut ns, &map, &plan, 0);
        assert_eq!(mig.jobs().len(), 1);
        assert_eq!(ns.frags_of(d).len(), 2, "live set must have split");
        let job = &mig.jobs()[0];
        assert!(job.total_inodes > 0 && job.total_inodes < 100);
    }

    #[test]
    fn freeze_window_blocks_subtree() {
        let (mut ns, mut map, d) = fixture();
        let f0 = ns.inode(d).children()[0];
        let mut mig = Migrator::new(1e9, 5, 0.0);
        mig.enqueue_plan(&mut ns, &map, &plan_for(d, 0, 1), 0);
        // Tick 0: whole transfer completes, enters commit until tick 5.
        mig.step(&ns, &mut map, 0);
        assert!(mig.is_frozen(&ns, f0));
        assert!(!mig.is_frozen(&ns, d), "the dir inode itself is outside");
        // Ticks pass; at the commit tick the authority flips and thaw.
        for tick in 1..=5 {
            mig.step(&ns, &mut map, tick);
        }
        assert!(!mig.is_frozen(&ns, f0));
        assert_eq!(map.frag_authority(&ns, d, &Frag::root()), MdsRank(1));
    }

    #[test]
    fn migration_charges_both_endpoints() {
        let (mut ns, mut map, d) = fixture();
        let mut mig = Migrator::new(50.0, 1, 0.1);
        mig.enqueue_plan(&mut ns, &map, &plan_for(d, 0, 1), 0);
        let charges = mig.step(&ns, &mut map, 0);
        assert_eq!(charges.len(), 2);
        let total: f64 = charges.iter().map(|(_, c)| c).sum();
        assert!((total - 2.0 * 50.0 * 0.1).abs() < 1e-9);
        assert!(charges.iter().any(|(r, _)| *r == MdsRank(0)));
        assert!(charges.iter().any(|(r, _)| *r == MdsRank(1)));
    }

    #[test]
    fn stalled_transfer_times_out_retries_and_commits() {
        let (mut ns, mut map, d) = fixture();
        let mut mig = Migrator::new(1e9, 0, 0.0);
        mig.configure_retry(3, 2, 2);
        mig.set_exporter_stall(MdsRank(0), 10);
        mig.enqueue_plan(&mut ns, &map, &plan_for(d, 0, 1), 0);
        let mut committed_at = None;
        for tick in 1..40u64 {
            mig.step(&ns, &mut map, tick);
            if mig.counters().completed_jobs == 1 {
                committed_at = Some(tick);
                break;
            }
        }
        let t = committed_at.expect("retry must eventually commit");
        assert!(t > 10, "cannot commit while the exporter is stalled");
        let c = mig.counters();
        assert!(c.timed_out_jobs >= 1, "the stall must blow the deadline");
        assert_eq!(c.retried_jobs, c.timed_out_jobs, "every timeout retried");
        assert_eq!(c.started_jobs, 1, "retries are not new starts");
        assert_eq!(c.abandoned_jobs, 0);
        assert_eq!(
            c.started_jobs,
            c.completed_jobs + c.abandoned_jobs + mig.in_flight()
        );
        assert_eq!(map.frag_authority(&ns, d, &Frag::root()), MdsRank(1));
    }

    #[test]
    fn retry_budget_exhausted_abandons_without_flip() {
        let (mut ns, mut map, d) = fixture();
        let mut mig = Migrator::new(1e9, 0, 0.0);
        mig.configure_retry(2, 1, 1);
        mig.set_exporter_stall(MdsRank(0), 1_000);
        mig.enqueue_plan(&mut ns, &map, &plan_for(d, 0, 1), 0);
        for tick in 1..30u64 {
            mig.step(&ns, &mut map, tick);
        }
        let c = mig.counters();
        assert_eq!(c.timed_out_jobs, 2, "initial attempt + one retry");
        assert_eq!(c.retried_jobs, 1);
        assert_eq!(c.abandoned_jobs, 1, "budget exhausted => abandoned");
        assert_eq!(c.completed_jobs, 0);
        assert_eq!(mig.in_flight(), 0);
        assert_eq!(
            c.started_jobs,
            c.completed_jobs + c.abandoned_jobs + mig.in_flight()
        );
        assert_eq!(
            map.frag_authority(&ns, d, &Frag::root()),
            MdsRank(0),
            "an abandoned migration must never flip authority"
        );
    }

    #[test]
    fn parked_retry_counts_in_flight_and_blocks_overlap() {
        let (mut ns, mut map, d) = fixture();
        let mut mig = Migrator::new(1e9, 0, 0.0);
        mig.configure_retry(1, 3, 50);
        mig.set_exporter_stall(MdsRank(0), 100);
        mig.enqueue_plan(&mut ns, &map, &plan_for(d, 0, 1), 0);
        mig.step(&ns, &mut map, 1); // deadline blown -> parked
        assert_eq!(mig.jobs().len(), 0);
        assert_eq!(mig.retry_queue.len(), 1);
        assert_eq!(mig.in_flight(), 1, "parked jobs are still in flight");
        // A new plan for the same subtree must be rejected as overlapping.
        mig.enqueue_plan(&mut ns, &map, &plan_for(d, 0, 2), 1);
        assert_eq!(mig.in_flight(), 1);
        assert!(mig.counters().rejected_choices >= 1);
        // Draining the exporter abandons the parked job too.
        mig.abandon_jobs_touching(MdsRank(0));
        assert_eq!(mig.in_flight(), 0);
        assert_eq!(mig.counters().abandoned_jobs, 1);
    }

    #[test]
    fn codec_round_trips_mid_flight_state() {
        use lunule_util::codec::{Decoder, Encoder};
        let (mut ns, mut map, d) = fixture();
        // 100 inodes at 30/s: still transferring after two ticks; add a
        // parked retry and an active stall so every branch serialises.
        let mut mig = Migrator::new(30.0, 1, 0.1);
        mig.configure_retry(50, 2, 4);
        mig.set_exporter_stall(MdsRank(2), 40);
        mig.enqueue_plan(&mut ns, &map, &plan_for(d, 0, 1), 0);
        mig.step(&ns, &mut map, 0);
        mig.step(&ns, &mut map, 1);
        assert_eq!(mig.jobs().len(), 1);
        let mut e = Encoder::new();
        mig.save_state(&mut e);
        let bytes = e.into_bytes();

        let mut back = Migrator::new(30.0, 1, 0.1);
        back.configure_retry(50, 2, 4);
        let mut dec = Decoder::new(&bytes);
        back.load_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back.counters(), mig.counters());
        assert_eq!(back.jobs().len(), 1);
        assert_eq!(back.jobs()[0].moved, mig.jobs()[0].moved);
        assert_eq!(back.in_flight(), mig.in_flight());

        // Re-encoding is byte-identical, and both engines finish the
        // transfer on the same tick with the same ledger.
        let mut e2 = Encoder::new();
        back.save_state(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);
        let mut map2 = map.clone();
        let ns2 = ns.clone();
        for tick in 2..10u64 {
            mig.step(&ns, &mut map, tick);
            back.step(&ns2, &mut map2, tick);
            assert_eq!(back.counters(), mig.counters(), "diverged at {tick}");
        }
        assert_eq!(mig.counters().completed_jobs, 1);
        let _ = ns2;
    }

    #[test]
    fn codec_rejects_impossible_progress() {
        use lunule_util::codec::{CodecError, Decoder, Encoder};
        let mut e = Encoder::new();
        // One job claiming moved > total_inodes.
        e.put_usize(1);
        e.put_u16(0);
        e.put_u16(1);
        e.put_u64(1); // dir
        Frag::root().encode(&mut e);
        e.put_u64(10); // total
        e.put_u64(11); // moved: impossible
        e.put_u64(0);
        e.put_u32(0);
        e.put_u8(0);
        e.put_u64(u64::MAX);
        for _ in 0..7 {
            e.put_u64(0); // counters
        }
        e.put_usize(0); // retry queue
        e.put_usize(0); // stalls
        let bytes = e.into_bytes();
        let mut mig = Migrator::new(1.0, 1, 0.0);
        assert!(matches!(
            mig.load_state(&mut Decoder::new(&bytes)),
            Err(CodecError::Invalid {
                what: "job.progress"
            })
        ));
    }

    #[test]
    fn empty_subtree_rejected() {
        let mut ns = Namespace::new();
        let d = ns.mkdir(InodeId::ROOT, "empty").unwrap();
        let map = SubtreeMap::new(MdsRank(0));
        let mut mig = Migrator::new(1.0, 0, 0.0);
        mig.enqueue_plan(&mut ns, &map, &plan_for(d, 0, 1), 0);
        assert!(mig.jobs().is_empty());
    }
}
