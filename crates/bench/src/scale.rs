//! Megascale run construction: million-client populations over
//! multi-million-inode namespaces, built as client groups.
//!
//! The simulator carries a population as a handful of cohort flows, so
//! the only per-client cost left is arithmetic on counts. This module builds
//! the namespace and the grouped streams the scale experiments
//! (`megascale`, fig13's scale frontier) share, so their populations are
//! identical and their journals comparable.

use lunule_core::{make_balancer, BalancerKind};
use lunule_namespace::{InodeId, Namespace};
use lunule_sim::{FixedStream, OpStream, SimConfig, Simulation};
use lunule_telemetry::Telemetry;

/// Shape of one megascale run.
#[derive(Clone, Copy, Debug)]
pub struct ScaleSpec {
    /// Total client population (spread over [`ScaleSpec::groups`] cohorts).
    pub clients: u64,
    /// Number of identical-stream groups the population is split into.
    pub groups: usize,
    /// Directories under the root.
    pub dirs: usize,
    /// Files created in each directory.
    pub files_per_dir: usize,
    /// MDS ranks.
    pub n_mds: usize,
    /// Simulated duration, seconds.
    pub duration_secs: u64,
    /// Epoch length, seconds.
    pub epoch_secs: u64,
    /// Master seed.
    pub seed: u64,
}

impl ScaleSpec {
    /// The CI smoke shape: 1M clients over a 10^7-inode namespace on 128
    /// ranks, a few ticks — enough to exercise splits, a 512-route resolve
    /// batch per round, and an epoch close, small enough for a CI
    /// wall-clock budget.
    pub fn quick() -> ScaleSpec {
        ScaleSpec {
            clients: 1_000_000,
            groups: 512,
            dirs: 2_500,
            files_per_dir: 4_000,
            n_mds: 128,
            duration_secs: 8,
            epoch_secs: 4,
            seed: 42,
        }
    }

    /// The full shape: same population, a longer horizon so the balancer's
    /// migrations show up in the numbers.
    pub fn full() -> ScaleSpec {
        ScaleSpec {
            duration_secs: 60,
            epoch_secs: 10,
            ..ScaleSpec::quick()
        }
    }

    /// Total inodes the namespace will hold (root + dirs + files).
    pub fn n_inodes(&self) -> usize {
        1 + self.dirs + self.dirs * self.files_per_dir
    }
}

/// Number of read targets each group's stream cycles over. Kept well above
/// the ops a member can issue in a short run, far below the namespace — a
/// full per-file list would be tens of millions of ids nobody reads.
const TARGETS_PER_GROUP: usize = 512;

/// Builds the namespace and one read-target list per group. Group `g`
/// owns the directories `d` with `d % groups == g` and reads one file from
/// each in round-robin order, so groups touch disjoint directory sets and
/// the balancer sees a spread workload. A spec with fewer directories than
/// groups clamps to one group per directory — every group must own at
/// least one target or its members would have nothing to read.
pub fn build_namespace(spec: &ScaleSpec) -> (Namespace, Vec<Vec<InodeId>>) {
    let groups = spec.groups.min(spec.dirs).max(1);
    let mut ns = Namespace::new();
    let mut targets: Vec<Vec<InodeId>> = vec![Vec::new(); groups];
    for d in 0..spec.dirs {
        let dir = ns.mkdir_total(InodeId::ROOT, &format!("d{d}"));
        for f in 0..spec.files_per_dir {
            let id = ns.create_file_total(dir, &format!("f{f}"), 4_096);
            let bucket = &mut targets[d % groups];
            if f < 8 && bucket.len() < TARGETS_PER_GROUP {
                bucket.push(id);
            }
        }
    }
    (ns, targets)
}

/// Builds a megascale simulation: namespace per [`build_namespace`], one
/// cohort group per target list, population split evenly with the
/// remainder on the last group, Lunule balancing.
pub fn build_sim(spec: &ScaleSpec, telemetry: Telemetry) -> Simulation {
    let (ns, targets) = build_namespace(spec);
    let cfg = SimConfig {
        n_mds: spec.n_mds,
        mds_capacity: 500.0,
        epoch_secs: spec.epoch_secs,
        duration_secs: spec.duration_secs,
        stop_when_done: false,
        migration_bw: 50_000.0,
        migration_freeze_secs: 1,
        migration_op_cost: 0.02,
        client_rate: 5.0,
        client_cache_cap: 256,
        seed: spec.seed,
        telemetry,
        ..SimConfig::default()
    };
    let n_groups = targets.len();
    let per_group = spec.clients / n_groups as u64;
    let groups: Vec<(Box<dyn OpStream>, u64)> = targets
        .into_iter()
        .enumerate()
        .map(|(g, ids)| {
            let count = if g + 1 == n_groups {
                spec.clients - per_group * (n_groups as u64 - 1)
            } else {
                per_group
            };
            (Box::new(FixedStream::new(ids)) as Box<dyn OpStream>, count)
        })
        .collect();
    let balancer = make_balancer(BalancerKind::Lunule, cfg.mds_capacity);
    Simulation::new_grouped(cfg, ns, balancer, groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleSpec {
        ScaleSpec {
            clients: 1_000,
            groups: 4,
            dirs: 8,
            files_per_dir: 16,
            n_mds: 4,
            duration_secs: 4,
            epoch_secs: 2,
            seed: 1,
        }
    }

    #[test]
    fn namespace_matches_spec() {
        let spec = tiny();
        let (ns, targets) = build_namespace(&spec);
        assert_eq!(ns.len(), spec.n_inodes());
        assert_eq!(targets.len(), spec.groups);
        assert!(targets.iter().all(|t| !t.is_empty()));
    }

    #[test]
    fn population_splits_evenly_with_remainder_on_last() {
        let spec = ScaleSpec {
            clients: 1_001,
            ..tiny()
        };
        let sim = build_sim(&spec, Telemetry::disabled());
        assert_eq!(sim.n_clients(), 1_001);
        assert_eq!(sim.n_flows(), spec.groups, "one cohort per group");
    }

    #[test]
    fn groups_clamp_to_directory_count() {
        // More groups than directories: one group per directory, no empty
        // target lists, full population still accounted for.
        let spec = ScaleSpec {
            groups: 32,
            dirs: 8,
            ..tiny()
        };
        let (_, targets) = build_namespace(&spec);
        assert_eq!(targets.len(), 8);
        assert!(targets.iter().all(|t| !t.is_empty()));
        let sim = build_sim(&spec, Telemetry::disabled());
        assert_eq!(sim.n_clients(), 1_000, "tiny() population, all placed");
        assert_eq!(sim.n_flows(), 8);
    }

    #[test]
    fn tiny_run_completes_and_serves_ops() {
        let spec = tiny();
        let sim = build_sim(&spec, Telemetry::disabled());
        let r = sim.run();
        assert!(r.total_ops > 0);
        assert!(!r.epochs.is_empty());
    }
}
