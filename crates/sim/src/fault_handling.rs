//! Fault handling: rank drains, crash fail-over, scheduled and
//! operator-queued fault injection, and recovery of crashed ranks.

use crate::cluster::Simulation;
use lunule_faults::FaultKind;
use lunule_namespace::{FragKey, MdsRank};
use lunule_telemetry::Event;
use lunule_util::convert::{u64_to_f64, usize_to_u32, usize_to_u64};

impl Simulation {
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
    pub(crate) fn apply_fault_events(&mut self, tick: u64) {
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
}
