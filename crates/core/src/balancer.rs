//! The balancer interface the simulator drives, and the plan types every
//! policy produces.

use lunule_namespace::{FragKey, InodeId, MdsRank, Namespace, SubtreeMap};
use lunule_telemetry::Telemetry;

use crate::stats::EpochStats;

/// What kind of metadata operation an access was. Creates additionally grow
/// the namespace, which the pattern analyzer must account for when tracking
/// unvisited inodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Read-side metadata op (lookup, getattr, open, readdir…).
    Read,
    /// Create of a brand-new inode.
    Create,
    /// Unlink of an existing inode (shrinks its directory).
    Remove,
}

/// One recorded metadata access, as seen by the authoritative MDS.
#[derive(Clone, Copy, Debug)]
pub struct Access {
    /// Inode the operation targeted.
    pub ino: InodeId,
    /// Rank that served the operation.
    pub served_by: MdsRank,
    /// Operation class.
    pub kind: OpKind,
}

/// A subtree chosen for migration, with the load the selector believes it
/// carries (used by the simulator to size the transfer).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubtreeChoice {
    /// The dirfrag subtree to move.
    pub subtree: FragKey,
    /// Estimated load (same unit as the epoch loads) moving with it.
    pub estimated_load: f64,
}

/// All subtrees one exporter ships to one importer this epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct ExportTask {
    /// Source rank.
    pub from: MdsRank,
    /// Destination rank.
    pub to: MdsRank,
    /// Load amount the role decider asked to move.
    pub target_amount: f64,
    /// The subtrees selected to satisfy `target_amount`.
    pub subtrees: Vec<SubtreeChoice>,
}

impl ExportTask {
    /// Load the selected subtrees are estimated to carry.
    pub fn selected_load(&self) -> f64 {
        self.subtrees.iter().map(|s| s.estimated_load).sum()
    }
}

/// The migration plan a balancer returns for one epoch. An empty plan means
/// "do nothing".
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MigrationPlan {
    /// Independent export tasks; the migrator executes them concurrently.
    pub exports: Vec<ExportTask>,
}

impl MigrationPlan {
    /// True when no migration was requested.
    pub fn is_empty(&self) -> bool {
        self.exports.is_empty()
    }

    /// Total number of subtrees across all tasks.
    pub fn subtree_count(&self) -> usize {
        self.exports.iter().map(|e| e.subtrees.len()).sum()
    }
}

/// A metadata load balancer: the component this paper replaces in CephFS.
///
/// The simulator calls [`Balancer::record_access`] for every served request
/// (this is the Load Monitor / stats-recording role) and
/// [`Balancer::on_epoch`] once per epoch with the cluster-wide stats (the
/// Migration Initiator role). Implementations return a [`MigrationPlan`]
/// that the simulator's Migrator then executes with real costs.
pub trait Balancer: Send {
    /// Human-readable policy name (used in experiment output).
    fn name(&self) -> &'static str;

    /// One-time hook before the run starts; static policies (Dir-Hash
    /// pinning) mutate the subtree map here. A policy whose setup leaves
    /// redundant entries must never migrate, as Dir-Hash does not: each
    /// commit re-simplifies only the entries whose inherited rank it set.
    fn setup(&mut self, _ns: &Namespace, _map: &mut SubtreeMap, _n_mds: usize) {}

    /// Hands the balancer a telemetry handle so it can record phase spans
    /// and decision outcomes. Policies that do not instrument themselves
    /// keep this default and stay telemetry-free.
    fn attach_telemetry(&mut self, _telemetry: Telemetry) {}

    /// Sets a named tuning knob at runtime (the daemon control plane).
    /// Returns `true` when the knob exists and the value was applied;
    /// policies without runtime knobs keep this default and report `false`.
    fn set_knob(&mut self, _name: &str, _value: f64) -> bool {
        false
    }

    /// Records one served metadata request.
    fn record_access(&mut self, ns: &Namespace, access: Access);

    /// Records `n` identical served requests in one call. The contract is
    /// bit-exact equivalence with `n` sequential [`Balancer::record_access`]
    /// calls — the cohort client engine batches a run of identical client
    /// ops through here, and the differential tests compare the resulting
    /// balancer state byte-for-byte against the per-client path. Policies
    /// with a cheaper exact batch (integer counters) override this; the
    /// default simply loops.
    fn record_access_n(&mut self, ns: &Namespace, access: Access, n: u64) {
        for _ in 0..n {
            self.record_access(ns, access);
        }
    }

    /// Hint that accesses to `inos` are about to be recorded. A policy
    /// may load its per-inode state for them, so the caller's batch of
    /// cache misses overlaps; it must not change any state, and ids it
    /// has never seen are fine. The default does nothing.
    fn prefetch(&self, _inos: &[InodeId]) {}

    /// Epoch boundary: decide whether and what to migrate.
    fn on_epoch(&mut self, ns: &Namespace, map: &SubtreeMap, stats: &EpochStats) -> MigrationPlan;

    /// Writes the policy's *dynamic* state (heat counters, histories,
    /// analyzer windows, runtime-tuned knobs) to a snapshot section.
    /// Stateless policies keep the default and write nothing; what matters
    /// is that `save_state` and [`Balancer::load_state`] agree.
    fn save_state(&self, _e: &mut lunule_util::codec::Encoder) {}

    /// Restores the state written by [`Balancer::save_state`] into this
    /// freshly configured policy instance.
    fn load_state(
        &mut self,
        _d: &mut lunule_util::codec::Decoder<'_>,
    ) -> Result<(), lunule_util::codec::CodecError> {
        Ok(())
    }
}

/// Identifies one of the shipped balancer implementations; used by the
/// experiment harness to construct policies by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BalancerKind {
    /// Full Lunule: IF model + Algorithm 1 + workload-aware selection.
    Lunule,
    /// Lunule-Light: IF model + Algorithm 1, heat-based selection.
    LunuleLight,
    /// CephFS built-in balancer model.
    Vanilla,
    /// GreedySpill (GIGA+/Mantle).
    GreedySpill,
    /// Static hash pinning; never migrates.
    DirHash,
    /// Never balances at all (control).
    Off,
}

impl BalancerKind {
    /// All dynamic policies compared in the paper's Figure 6/7 grids.
    pub const FIG6_SET: [BalancerKind; 4] = [
        BalancerKind::Vanilla,
        BalancerKind::GreedySpill,
        BalancerKind::LunuleLight,
        BalancerKind::Lunule,
    ];

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            BalancerKind::Lunule => "Lunule",
            BalancerKind::LunuleLight => "Lunule-Light",
            BalancerKind::Vanilla => "Vanilla",
            BalancerKind::GreedySpill => "GreedySpill",
            BalancerKind::DirHash => "Dir-Hash",
            BalancerKind::Off => "Off",
        }
    }
}

impl std::fmt::Display for BalancerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A balancer that never migrates; the experimental control and a useful
/// fixture for simulator tests.
#[derive(Debug, Default)]
pub struct NoopBalancer;

impl Balancer for NoopBalancer {
    fn name(&self) -> &'static str {
        "Off"
    }

    fn record_access(&mut self, _ns: &Namespace, _access: Access) {}

    fn on_epoch(
        &mut self,
        _ns: &Namespace,
        _map: &SubtreeMap,
        _stats: &EpochStats,
    ) -> MigrationPlan {
        MigrationPlan::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_accounting() {
        let dir = InodeId::ROOT;
        let task = ExportTask {
            from: MdsRank(0),
            to: MdsRank(1),
            target_amount: 100.0,
            subtrees: vec![
                SubtreeChoice {
                    subtree: FragKey::whole(dir),
                    estimated_load: 60.0,
                },
                SubtreeChoice {
                    subtree: FragKey::whole(dir),
                    estimated_load: 35.0,
                },
            ],
        };
        assert_eq!(task.selected_load(), 95.0);
        let plan = MigrationPlan {
            exports: vec![task],
        };
        assert!(!plan.is_empty());
        assert_eq!(plan.subtree_count(), 2);
        assert!(MigrationPlan::default().is_empty());
    }

    #[test]
    fn noop_never_migrates() {
        let ns = Namespace::new();
        let map = SubtreeMap::new(MdsRank(0));
        let mut b = NoopBalancer;
        b.record_access(
            &ns,
            Access {
                ino: InodeId::ROOT,
                served_by: MdsRank(0),
                kind: OpKind::Read,
            },
        );
        let plan = b.on_epoch(&ns, &map, &EpochStats::new(0, 10.0, vec![100, 0]));
        assert!(plan.is_empty());
    }

    #[test]
    fn kind_labels_are_unique() {
        use std::collections::HashSet;
        let all = [
            BalancerKind::Lunule,
            BalancerKind::LunuleLight,
            BalancerKind::Vanilla,
            BalancerKind::GreedySpill,
            BalancerKind::DirHash,
            BalancerKind::Off,
        ];
        let labels: HashSet<_> = all.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), all.len());
    }
}
