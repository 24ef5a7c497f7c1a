//! Property-based tests for the core balancing algorithms.

use lunule_core::{
    decide_roles, select_subtrees, Candidate, EpochStats, IfModelConfig, ImbalanceFactorModel,
    LoadHistory, RoleConfig,
};
use lunule_namespace::{FragKey, InodeId, MdsRank, Namespace};
use lunule_util::propcheck::{self, vec_f64};

/// The imbalance factor is always within [0, 1] for any load vector.
#[test]
fn if_bounded() {
    propcheck::run(256, |rng| {
        let loads = vec_f64(rng, 0..20, 0.0, 1e7);
        let capacity = rng.gen_f64_in(1.0, 1e6);
        let m = ImbalanceFactorModel::new(IfModelConfig {
            mds_capacity: capacity,
            smoothness: 0.2,
        });
        let v = m.imbalance_factor(&loads);
        assert!((0.0..=1.0).contains(&v), "IF {v} for {loads:?}");
    });
}

/// CoV is scale-invariant: multiplying every load by a constant leaves the
/// coefficient of variation unchanged.
#[test]
fn cov_scale_invariant() {
    propcheck::run(256, |rng| {
        let loads = vec_f64(rng, 2..12, 1.0, 1e5);
        let k = rng.gen_f64_in(0.5, 100.0);
        let base = ImbalanceFactorModel::cov(&loads);
        let scaled: Vec<f64> = loads.iter().map(|l| l * k).collect();
        let cov = ImbalanceFactorModel::cov(&scaled);
        assert!((base - cov).abs() < 1e-6, "{base} vs {cov}");
    });
}

/// Urgency is monotone in the maximum load.
#[test]
fn urgency_monotone() {
    propcheck::run(256, |rng| {
        let a = rng.gen_f64_in(0.0, 1e5);
        let b = rng.gen_f64_in(0.0, 1e5);
        let m = ImbalanceFactorModel::new(IfModelConfig {
            mds_capacity: 10_000.0,
            smoothness: 0.2,
        });
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(m.urgency(lo) <= m.urgency(hi) + 1e-12);
    });
}

/// Algorithm 1 never moves more than the per-epoch capacity out of any
/// exporter, never exceeds any importer's demand, and exporters are always
/// strictly above the mean while importers are below it.
#[test]
fn roles_respect_caps() {
    propcheck::run(192, |rng| {
        let loads = vec_f64(rng, 2..10, 0.0, 10_000.0);
        let cfg = RoleConfig {
            migration_capacity: rng.gen_f64_in(1.0, 5_000.0),
        };
        let cap = cfg.migration_capacity;
        let decision = decide_roles(&loads, &LoadHistory::new(4), &cfg);
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        for (rank, eld) in &decision.exporters {
            assert!(loads[rank.index()] > mean);
            assert!(*eld <= cap + 1e-9);
            assert!(decision.export_amount_of(*rank) <= eld + 1e-9);
        }
        for (rank, ild) in &decision.importers {
            assert!(loads[rank.index()] < mean);
            assert!(*ild <= cap + 1e-9);
            let received: f64 = decision
                .pairings
                .iter()
                .filter(|p| p.importer == *rank)
                .map(|p| p.amount)
                .sum();
            assert!(received <= ild + 1e-9);
        }
        for p in &decision.pairings {
            assert!(p.amount > 0.0);
            assert!(p.exporter != p.importer);
        }
    });
}

/// The selector never picks two overlapping subtrees, never returns an
/// empty-load choice, and the selected total does not exceed the demand by
/// more than one candidate's worth.
#[test]
fn selector_is_sane() {
    propcheck::run(128, |rng| {
        let loads = vec_f64(rng, 1..12, 0.1, 500.0);
        let frac = rng.gen_f64_in(0.05, 1.0);
        let mut ns = Namespace::new();
        let mut cands = Vec::new();
        for (i, load) in loads.iter().enumerate() {
            let d = ns.mkdir(InodeId::ROOT, &format!("d{i}")).unwrap();
            for j in 0..8 {
                ns.create_file(d, &format!("f{j}"), 1).unwrap();
            }
            cands.push(Candidate {
                key: FragKey::whole(d),
                rank: MdsRank(0),
                load: *load,
                local_load: *load,
                inodes: 8,
            });
        }
        let total: f64 = loads.iter().sum();
        let amount = total * frac;
        let picks = select_subtrees(&ns, &cands, amount);
        // No duplicate subtrees.
        for (i, a) in picks.iter().enumerate() {
            for b in &picks[i + 1..] {
                assert!(
                    a.subtree.dir != b.subtree.dir || a.subtree.frag.disjoint(&b.subtree.frag),
                    "overlapping picks: {a:?} {b:?}"
                );
            }
        }
        for p in &picks {
            assert!(p.estimated_load > 0.0);
        }
        let selected: f64 = picks.iter().map(|p| p.estimated_load).sum();
        let max_single = loads.iter().copied().fold(0.0, f64::max);
        assert!(
            selected <= amount + max_single + 1e-9,
            "selected {selected} for amount {amount} (max single {max_single})"
        );
    });
}

/// EpochStats unit conversions are consistent.
#[test]
fn epoch_stats_consistent() {
    propcheck::run(256, |rng| {
        let n = rng.gen_range(1..16);
        let reqs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000) as u64).collect();
        let secs = rng.gen_f64_in(0.5, 60.0);
        let s = EpochStats::new(0, secs, reqs.clone());
        let total: f64 = s.iops().iter().sum();
        assert!((total - s.total_iops()).abs() < 1e-6);
        assert!(s.max_iops() <= s.total_iops() + 1e-9);
        assert!((s.mean_iops() * reqs.len() as f64 - s.total_iops()).abs() < 1e-6);
    });
}
