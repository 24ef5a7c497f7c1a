//! # lunule-core
//!
//! The paper's primary contribution, as a reusable library:
//!
//! * the **Imbalance Factor model** ([`if_model`]) — CoV-based imbalance
//!   sensing with a logistic urgency term (Equations 1–3);
//! * the **role and amount decider** ([`roles`]) — Algorithm 1, with
//!   per-epoch migration capacity and importer future-load correction;
//! * the **Pattern Analyzer** ([`analyzer`]) — cutting windows, α/β
//!   locality factors and the migration index (Equation 4);
//! * the **Subtree Selector** ([`selector`]) — match / split / greedy
//!   candidate search;
//! * the assembled [`LunuleBalancer`] plus the paper's three comparison
//!   systems in [`baselines`] (Vanilla CephFS, GreedySpill, Dir-Hash).
//!
//! Everything is expressed against the `lunule-namespace` substrate and the
//! [`Balancer`] trait, so policies are interchangeable in the simulator and
//! directly unit-testable without one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )
)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod analyzer;
pub mod balancer;
pub mod baselines;
pub mod dirload;
pub mod heat;
pub mod if_model;
pub mod linreg;
pub mod lunule;
pub mod roles;
pub mod selector;
pub mod stats;

pub use analyzer::{AnalyzerConfig, MigrationIndex, PatternAnalyzer};
pub use balancer::{
    Access, Balancer, BalancerKind, ExportTask, MigrationPlan, NoopBalancer, OpKind, SubtreeChoice,
};
pub use baselines::{DirHashBalancer, GreedySpillBalancer, VanillaBalancer};
pub use dirload::{build_candidates, build_candidates_n, Candidate, RankBuckets};
pub use heat::HeatMap;
pub use if_model::{IfModelConfig, ImbalanceFactorModel};
pub use lunule::{LunuleBalancer, LunuleConfig};
pub use roles::{decide_roles, Pairing, RoleConfig, RoleDecision};
pub use selector::{observe_selection, select_hottest, select_subtrees, subtrees_overlap};
pub use stats::{EpochStats, LoadHistory};

/// Constructs a balancer instance by kind, using each policy's defaults and
/// `capacity` (IOPS) for the policies that model MDS capacity.
pub fn make_balancer(kind: BalancerKind, capacity: f64) -> Box<dyn Balancer> {
    match kind {
        BalancerKind::Lunule => Box::new(LunuleBalancer::new(LunuleConfig::for_capacity(capacity))),
        BalancerKind::LunuleLight => Box::new(LunuleBalancer::new(LunuleConfig {
            workload_aware: false,
            ..LunuleConfig::for_capacity(capacity)
        })),
        BalancerKind::Vanilla => Box::new(VanillaBalancer::default()),
        BalancerKind::GreedySpill => Box::new(GreedySpillBalancer::default()),
        BalancerKind::DirHash => Box::new(DirHashBalancer),
        BalancerKind::Off => Box::new(NoopBalancer),
    }
}

/// Computes the imbalance factor of a load vector with a given capacity,
/// using the paper's default smoothness — the one-call convenience the
/// reporting layers use.
pub fn imbalance_factor(loads: &[f64], capacity: f64) -> f64 {
    ImbalanceFactorModel::new(IfModelConfig {
        mds_capacity: capacity,
        smoothness: 0.2,
    })
    .imbalance_factor(loads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_kind() {
        for kind in [
            BalancerKind::Lunule,
            BalancerKind::LunuleLight,
            BalancerKind::Vanilla,
            BalancerKind::GreedySpill,
            BalancerKind::DirHash,
            BalancerKind::Off,
        ] {
            let b = make_balancer(kind, 1000.0);
            assert_eq!(b.name(), kind.label());
        }
    }

    #[test]
    fn convenience_if_matches_model() {
        let loads = [100.0, 0.0, 0.0];
        let direct = imbalance_factor(&loads, 100.0);
        let model = ImbalanceFactorModel::new(IfModelConfig {
            mds_capacity: 100.0,
            smoothness: 0.2,
        });
        assert_eq!(direct, model.imbalance_factor(&loads));
    }
}
