//! The Dir-Hash baseline: static hash-based subtree pinning.
//!
//! The paper simulates a hash-based metadata service inside CephFS by
//! splitting the namespace into fine-grained subtrees and statically pinning
//! each directory to the MDS chosen by its hash (Fig. 13b/14). Inodes spread
//! evenly, but request load follows workload popularity and cannot be
//! rebalanced, and path traversal crosses many authority boundaries —
//! roughly doubling inter-MDS forwards in the paper's measurement.

use crate::balancer::{Access, Balancer, MigrationPlan};
use crate::stats::EpochStats;
use lunule_namespace::{FragKey, MdsRank, Namespace, SubtreeMap};
use lunule_util::convert::{u64_to_usize, usize_to_u64};

/// The static-pinning balancer. All work happens in [`Balancer::setup`];
/// epochs never produce migrations.
#[derive(Debug, Default)]
pub struct DirHashBalancer;

impl DirHashBalancer {
    /// The rank a directory id hashes to among `n_mds` ranks.
    pub fn rank_of(&self, raw_dir_id: u64, n_mds: usize) -> MdsRank {
        // SplitMix64 finalizer: uniform and deterministic.
        let mut z = raw_dir_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        MdsRank::from_index(u64_to_usize(z % usize_to_u64(n_mds)))
    }
}

impl Balancer for DirHashBalancer {
    fn name(&self) -> &'static str {
        "Dir-Hash"
    }

    fn setup(&mut self, ns: &Namespace, map: &mut SubtreeMap, n_mds: usize) {
        // Pin every directory's contents to its hashed rank. Entries on
        // nested directories override the parent's, exactly like fine-
        // grained static subtree pinning in CephFS.
        for &dir in ns.dir_ids() {
            let rank = self.rank_of(dir.raw(), n_mds);
            map.set_authority(FragKey::whole(dir), rank);
        }
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
    use lunule_namespace::InodeId;

    #[test]
    fn pins_every_directory() {
        let mut ns = Namespace::new();
        for d in 0..50 {
            let dir = ns.mkdir(InodeId::ROOT, &format!("d{d}")).unwrap();
            ns.create_file(dir, "f", 1).unwrap();
        }
        let mut map = SubtreeMap::new(MdsRank(0));
        let mut b = DirHashBalancer;
        b.setup(&ns, &mut map, 5);
        // Every directory (root included) has an entry.
        assert_eq!(map.entry_count(), ns.dir_count());
        // Inodes spread across all ranks reasonably evenly.
        let counts = map.inode_counts(&ns, 5);
        assert_eq!(counts.iter().sum::<usize>(), ns.len());
        for c in &counts {
            assert!(*c >= 5, "static hashing should spread inodes: {counts:?}");
        }
    }

    #[test]
    fn never_migrates() {
        let ns = Namespace::new();
        let map = SubtreeMap::new(MdsRank(0));
        let mut b = DirHashBalancer;
        let plan = b.on_epoch(&ns, &map, &EpochStats::new(0, 1.0, vec![100, 0]));
        assert!(plan.is_empty());
    }

    #[test]
    fn hash_shuffles_placement() {
        let b = DirHashBalancer;
        let moved = (0..100u64)
            .filter(|i| b.rank_of(*i, 5).index() != (*i % 5) as usize)
            .count();
        assert!(
            moved > 30,
            "hashing must shuffle a round-robin layout: {moved}"
        );
    }

    #[test]
    fn rank_always_in_range() {
        let b = DirHashBalancer;
        for i in 0..1000u64 {
            assert!(b.rank_of(i, 7).index() < 7);
        }
    }
}
