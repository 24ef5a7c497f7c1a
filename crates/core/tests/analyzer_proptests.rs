//! Property-based tests for the Pattern Analyzer and migration index.

use lunule_core::analyzer::RECENT_WINDOWS;
use lunule_core::{AnalyzerConfig, PatternAnalyzer};
use lunule_namespace::{InodeId, Namespace};
use lunule_util::propcheck::{self, vec_usize};

/// Two directories of `files` files each.
fn fixture(files: usize) -> (Namespace, Vec<InodeId>, Vec<InodeId>) {
    let mut ns = Namespace::new();
    let mut dirs = Vec::new();
    let mut all = Vec::new();
    for d in 0..2 {
        let dir = ns.mkdir(InodeId::ROOT, &format!("d{d}")).unwrap();
        for i in 0..files {
            all.push(ns.create_file(dir, &format!("f{i}"), 1).unwrap());
        }
        dirs.push(dir);
    }
    (ns, dirs, all)
}

/// Under any interleaving of accesses and window advances: α stays in
/// [0,1], every factor is non-negative, and the visited count never
/// exceeds the directory population.
#[test]
fn factors_stay_in_range() {
    propcheck::run(96, |rng| {
        let (ns, dirs, files) = fixture(20);
        let mut an = PatternAnalyzer::new(AnalyzerConfig {
            sibling_probability: rng.gen_f64(),
        });
        for _ in 0..rng.gen_range(1..300) {
            let sel = rng.gen_range(0..40);
            an.record_access(&ns, files[sel % files.len()], false);
            if rng.gen_bool() {
                an.advance_window();
            }
        }
        for dir in &dirs {
            if let Some(idx) = an.index_of(*dir) {
                assert!((0.0..=1.0).contains(&idx.alpha), "alpha {}", idx.alpha);
                assert!(idx.beta >= 0.0);
                assert!(idx.l_t >= 0.0);
                assert!(idx.l_s >= 0.0);
                assert!(idx.value() >= 0.0);
            }
        }
    });
}

/// A directory idle for longer than the window span decays to zero recent
/// activity, no matter what happened before.
#[test]
fn idle_directories_decay() {
    propcheck::run(96, |rng| {
        let burst = rng.gen_range(1..100);
        let (ns, dirs, files) = fixture(30);
        let mut an = PatternAnalyzer::new(AnalyzerConfig {
            sibling_probability: 0.0,
        });
        for i in 0..burst {
            an.record_access(&ns, files[i % files.len()], false);
        }
        for _ in 0..RECENT_WINDOWS + 1 {
            an.advance_window();
        }
        let idx = an.index_of(dirs[0]).expect("dir was observed");
        assert_eq!(idx.l_t, 0.0);
        assert_eq!(idx.l_s, 0.0);
        assert_eq!(idx.alpha, 0.0);
    });
}

/// Creates followed by removals leave the unvisited balance at zero — β
/// must not go negative or explode after a full create/remove cycle.
#[test]
fn create_remove_cycles_balance() {
    propcheck::run(96, |rng| {
        let count = rng.gen_range(1..60);
        let mut ns = Namespace::new();
        let dir = ns.mkdir(InodeId::ROOT, "out").unwrap();
        let mut an = PatternAnalyzer::new(AnalyzerConfig {
            sibling_probability: 0.0,
        });
        let mut created = Vec::new();
        for i in 0..count {
            let f = ns.create_file(dir, &format!("f{i}"), 0).unwrap();
            an.record_access(&ns, f, true);
            created.push(f);
        }
        for f in &created {
            an.record_access(&ns, *f, false);
            an.record_remove(&ns, *f);
            ns.unlink(*f).unwrap();
        }
        let idx = an.index_of(dir).expect("dir was observed");
        assert_eq!(idx.beta, 0.0, "no survivors -> nothing unvisited");
        assert!(ns.invariants_hold());
    });
}

/// Determinism: the same access sequence always produces the same migration
/// indices, regardless of when indices are queried.
#[test]
fn analyzer_is_deterministic() {
    propcheck::run(96, |rng| {
        let ops = vec_usize(rng, 1..150, 0..40);
        let (ns, dirs, files) = fixture(20);
        let run_once = |query_midway: bool| {
            let mut an = PatternAnalyzer::new(AnalyzerConfig::default());
            for (i, sel) in ops.iter().enumerate() {
                an.record_access(&ns, files[sel % files.len()], false);
                if query_midway && i == ops.len() / 2 {
                    let _ = an.mindex_of(dirs[0]);
                }
            }
            (an.mindex_of(dirs[0]), an.mindex_of(dirs[1]))
        };
        assert_eq!(run_once(false), run_once(true));
    });
}
