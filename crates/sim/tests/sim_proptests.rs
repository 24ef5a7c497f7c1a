//! Property-based tests for the simulator's conservation invariants,
//! cross-checked by `lunule-verify`'s [`InvariantChecker`].

use lunule_core::{ExportTask, MigrationPlan, SubtreeChoice};
use lunule_namespace::{FragKey, InodeId, MdsRank, Namespace, SubtreeMap};
use lunule_sim::Migrator;
use lunule_util::propcheck;
use lunule_verify::InvariantChecker;

/// A namespace of `dirs` directories with `files` files each.
fn fixture(dirs: usize, files: usize) -> (Namespace, Vec<InodeId>) {
    let mut ns = Namespace::new();
    let ids = (0..dirs)
        .map(|d| {
            let dir = ns.mkdir(InodeId::ROOT, &format!("d{d}")).unwrap();
            for i in 0..files {
                ns.create_file(dir, &format!("f{i}"), 1).unwrap();
            }
            dir
        })
        .collect();
    (ns, ids)
}

/// Any sequence of (possibly conflicting, possibly stale) migration plans
/// leaves every inode with a valid authority, conserves the total inode
/// count across ranks, and keeps both map and namespace invariants — the
/// checker audits the map before, during, and after every migration step.
#[test]
fn migrations_conserve_authority() {
    propcheck::run(48, |rng| {
        let n_mds = 4u16;
        let (mut ns, dirs) = fixture(8, 12);
        let mut map = SubtreeMap::new(MdsRank(0));
        let bw = rng.gen_f64_in(1.0, 10_000.0);
        let freeze = rng.gen_range(0..4) as u64;
        let mut mig = Migrator::new(bw, freeze, 0.0);
        let mut checker = InvariantChecker::default();
        let mut tick = 0u64;
        for _ in 0..rng.gen_range(0..24) {
            let dir = dirs[rng.gen_range(0..dirs.len())];
            let plan = MigrationPlan {
                exports: vec![ExportTask {
                    from: MdsRank(rng.gen_range(0..n_mds as usize) as u16),
                    to: MdsRank(rng.gen_range(0..n_mds as usize) as u16),
                    target_amount: 10.0,
                    subtrees: vec![SubtreeChoice {
                        subtree: FragKey::whole(dir),
                        estimated_load: 10.0,
                    }],
                }],
            };
            mig.enqueue_plan(&mut ns, &map, &plan, 0);
            // Advance a few ticks so some jobs finish mid-sequence; audit
            // conservation and frozen-subtree stability at every step.
            for _ in 0..3 {
                mig.step(&ns, &mut map, tick);
                tick += 1;
                let frozen: Vec<(FragKey, MdsRank)> = mig
                    .jobs()
                    .iter()
                    .filter(|j| j.is_committing())
                    .map(|j| (j.subtree, j.from))
                    .collect();
                checker.check_subtree_map(&ns, &map);
                checker.check_frozen_subtrees(&ns, &map, &frozen);
                checker.check_conservation(&ns, &map, n_mds as usize);
                checker.assert_clean();
            }
        }
        // Drain every remaining job.
        for _ in 0..10_000 {
            if mig.jobs().is_empty() {
                break;
            }
            mig.step(&ns, &mut map, tick);
            tick += 1;
        }
        assert!(mig.jobs().is_empty(), "all jobs must drain");
        assert!(map.invariants_hold());
        assert!(ns.invariants_hold());
        checker.audit(&ns, &map, n_mds as usize, &[]);
        checker.assert_clean();
        let counts = map.inode_counts(&ns, n_mds as usize);
        assert_eq!(counts.iter().sum::<usize>(), ns.live_count());
    });
}

/// Simplify never changes any inode's resolved authority, and the
/// simplified map stays clean under the checker.
#[test]
fn simplify_preserves_resolution() {
    propcheck::run(96, |rng| {
        let (ns, dirs) = fixture(8, 4);
        let mut map = SubtreeMap::new(MdsRank(0));
        for _ in 0..rng.gen_range(0..16) {
            let dir = dirs[rng.gen_range(0..dirs.len())];
            let rank = MdsRank(rng.gen_range(0..4) as u16);
            map.set_authority(FragKey::whole(dir), rank);
        }
        let before: Vec<MdsRank> = (0..ns.len())
            .map(|i| map.authority(&ns, InodeId::from_index(i)))
            .collect();
        map.simplify(&ns);
        let after: Vec<MdsRank> = (0..ns.len())
            .map(|i| map.authority(&ns, InodeId::from_index(i)))
            .collect();
        assert_eq!(before, after);
        let mut checker = InvariantChecker::default();
        checker.audit(&ns, &map, 4, &[]);
        checker.assert_clean();
    });
}

/// Random interleavings of mkdirs, creates and unlinks keep the namespace
/// arena consistent and the subtree map total-covering.
#[test]
fn mutations_keep_namespace_and_map_consistent() {
    propcheck::run(48, |rng| {
        let mut ns = Namespace::new();
        let mut dirs = vec![InodeId::ROOT];
        let mut files: Vec<InodeId> = Vec::new();
        let mut map = SubtreeMap::new(MdsRank(0));
        for _ in 0..rng.gen_range(1..120) {
            let a = rng.gen_range(0..32);
            match rng.gen_range(0..3) {
                0 => {
                    let parent = dirs[a % dirs.len()];
                    dirs.push(ns.mkdir(parent, "d").unwrap());
                }
                1 => {
                    let parent = dirs[a % dirs.len()];
                    files.push(ns.create_file(parent, "f", 1).unwrap());
                }
                _ => {
                    if !files.is_empty() {
                        let f = files.swap_remove(a % files.len());
                        ns.unlink(f).unwrap();
                    }
                }
            }
            assert!(ns.invariants_hold());
        }
        // Pin a couple of live dirs and check total coverage.
        for d in dirs.iter().take(3) {
            map.set_authority(FragKey::whole(*d), MdsRank(1));
        }
        let counts = map.inode_counts(&ns, 2);
        assert_eq!(counts.iter().sum::<usize>(), ns.live_count());
        let mut checker = InvariantChecker::default();
        checker.check_frag_partitions(&ns);
        checker.check_conservation(&ns, &map, 2);
        checker.assert_clean();
    });
}
