//! Role and migration-amount determination — Algorithm 1 of the paper.
//!
//! Once the IF model decides a re-balance is needed, the Migration Initiator
//! partitions ranks into *exporters* (loaded above the mean by more than a
//! threshold) and *importers* (below the mean, with the gap corrected by
//! their predicted future load), clamps both sides by the per-epoch
//! migration capacity, and pairs demands greedily into an export matrix
//! `E[i][j]` = load to ship from rank `i` to rank `j`.

use crate::linreg::predict_next;
use crate::stats::LoadHistory;
use lunule_namespace::MdsRank;
use lunule_util::convert::usize_to_f64;

/// `L`: squared relative deviation threshold. A rank participates only
/// when `((|cld - mean|)/mean)^2 > L`.
pub(crate) const DEVIATION_THRESHOLD: f64 = 0.02;

/// Tunables for Algorithm 1.
#[derive(Clone, Copy, Debug)]
pub struct RoleConfig {
    /// `Cap`: the maximal load one MDS can export or import during a single
    /// epoch (in the same unit as the loads — IOPS here). Bounds migration
    /// so a single decision cannot over-migrate (the paper's fix for the
    /// ping-pong effect).
    pub migration_capacity: f64,
}

impl Default for RoleConfig {
    fn default() -> Self {
        RoleConfig {
            migration_capacity: 2_000.0,
        }
    }
}

/// One pairing produced by Algorithm 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pairing {
    /// Overloaded rank shedding load.
    pub exporter: MdsRank,
    /// Underloaded rank absorbing it.
    pub importer: MdsRank,
    /// Load amount to move, in the unit the loads were given in.
    pub amount: f64,
}

/// The full decision: pairings plus the per-rank roles for reporting.
#[derive(Clone, Debug, Default)]
pub struct RoleDecision {
    /// Exporter→importer transfers. Empty when the cluster is balanced
    /// enough or no pairing is possible.
    pub pairings: Vec<Pairing>,
    /// Ranks classified as exporters with their total export demand (`eld`).
    pub exporters: Vec<(MdsRank, f64)>,
    /// Ranks classified as importers with their import capacity (`ild`).
    pub importers: Vec<(MdsRank, f64)>,
}

impl RoleDecision {
    /// Total load the decision moves.
    pub fn total_amount(&self) -> f64 {
        self.pairings.iter().map(|p| p.amount).sum()
    }

    /// Export demand assigned to `rank` across all its pairings.
    pub fn export_amount_of(&self, rank: MdsRank) -> f64 {
        self.pairings
            .iter()
            .filter(|p| p.exporter == rank)
            .map(|p| p.amount)
            .sum()
    }
}

/// Runs Algorithm 1.
///
/// * `loads` — current per-rank load (`cld`), indexed by rank.
/// * `history` — recent load history for future-load (`fld`) prediction;
///   pass an empty history to disable the importer-side correction.
pub fn decide_roles(loads: &[f64], history: &LoadHistory, cfg: &RoleConfig) -> RoleDecision {
    decide_roles_weighted(loads, None, history, cfg)
}

/// Capacity-aware generalisation of Algorithm 1 (extension — the paper's
/// footnote 1 assumes homogeneous MDSs and scopes heterogeneity out).
///
/// With `capacities = Some(c)`, each rank's *target* load is the cluster
/// total apportioned by its capacity share instead of the plain mean, so a
/// rank twice as powerful is expected to carry twice the load before it
/// counts as an exporter. `None` reduces to the paper's homogeneous form.
pub fn decide_roles_weighted(
    loads: &[f64],
    capacities: Option<&[f64]>,
    history: &LoadHistory,
    cfg: &RoleConfig,
) -> RoleDecision {
    let n = loads.len();
    let mut decision = RoleDecision::default();
    if n < 2 {
        return decision;
    }
    let total: f64 = loads.iter().sum();
    if total <= 0.0 {
        return decision;
    }
    // Per-rank target: capacity share of the total, or the mean.
    let targets: Vec<f64> = match capacities {
        Some(caps) if caps.len() >= n => {
            let cap_total: f64 = caps[..n].iter().sum();
            if cap_total <= 0.0 {
                vec![total / usize_to_f64(n); n]
            } else {
                caps[..n].iter().map(|c| total * c / cap_total).collect()
            }
        }
        _ => vec![total / usize_to_f64(n); n],
    };

    // Phase 1: classify ranks and compute per-rank demands.
    let mut eld = vec![0.0f64; n]; // export demand
    let mut ild = vec![0.0f64; n]; // import capacity
    for (i, &cld) in loads.iter().enumerate() {
        let target = targets[i];
        if target <= 0.0 {
            continue;
        }
        let delta = (cld - target).abs();
        if (delta / target).powi(2) <= DEVIATION_THRESHOLD {
            continue;
        }
        if cld > target {
            eld[i] = delta.min(cfg.migration_capacity);
            decision.exporters.push((MdsRank::from_index(i), eld[i]));
        } else {
            // Importer only if its own predicted growth will not close the
            // gap by itself (lines 10-12 of Algorithm 1).
            let fld = predict_next(history.series(i));
            let growth = (fld - cld).max(0.0);
            if growth < delta {
                ild[i] = (delta - growth).min(cfg.migration_capacity);
                if ild[i] > 0.0 {
                    decision.importers.push((MdsRank::from_index(i), ild[i]));
                }
            }
        }
    }

    // Phase 2: pair exporters with importers, largest demands first so the
    // most stressed rank gets relief even if capacity runs out.
    let mut exporters: Vec<usize> = (0..n).filter(|&i| eld[i] > 0.0).collect();
    let mut importers: Vec<usize> = (0..n).filter(|&i| ild[i] > 0.0).collect();
    exporters.sort_by(|&a, &b| eld[b].total_cmp(&eld[a]));
    importers.sort_by(|&a, &b| ild[b].total_cmp(&ild[a]));
    for &i in &exporters {
        for &j in &importers {
            if eld[i] <= 0.0 {
                break;
            }
            if ild[j] <= 0.0 {
                continue;
            }
            let amount = eld[i].min(ild[j]);
            decision.pairings.push(Pairing {
                exporter: MdsRank::from_index(i),
                importer: MdsRank::from_index(j),
                amount,
            });
            eld[i] -= amount;
            ild[j] -= amount;
        }
    }
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::EpochStats;

    fn cfg() -> RoleConfig {
        RoleConfig {
            migration_capacity: 1_000.0,
        }
    }

    fn no_history() -> LoadHistory {
        LoadHistory::new(4)
    }

    #[test]
    fn balanced_cluster_produces_nothing() {
        let d = decide_roles(&[100.0, 100.0, 100.0], &no_history(), &cfg());
        assert!(d.pairings.is_empty());
        assert!(d.exporters.is_empty());
    }

    #[test]
    fn single_hot_mds_exports_to_idle_peers() {
        let d = decide_roles(&[900.0, 10.0, 10.0], &no_history(), &cfg());
        assert_eq!(d.exporters.len(), 1);
        assert_eq!(d.exporters[0].0, MdsRank(0));
        assert_eq!(d.importers.len(), 2);
        assert!(!d.pairings.is_empty());
        for p in &d.pairings {
            assert_eq!(p.exporter, MdsRank(0));
            assert!(p.amount > 0.0);
        }
        // Exports never exceed the exporter's own demand.
        let mean = 920.0 / 3.0;
        assert!(d.export_amount_of(MdsRank(0)) <= 900.0 - mean + 1e-9);
    }

    #[test]
    fn capacity_clamps_exports() {
        let tight = RoleConfig {
            migration_capacity: 50.0,
        };
        let d = decide_roles(&[900.0, 10.0, 10.0], &no_history(), &tight);
        assert!(d.total_amount() <= 50.0 + 1e-9);
    }

    #[test]
    fn importer_with_rising_trend_is_skipped() {
        // Rank 1 is currently light but its load is climbing steeply enough
        // to close the gap on its own; Algorithm 1 must not import into it.
        let mut hist = LoadHistory::new(4);
        for e in 0..4u64 {
            // Rank 1's load: 0, 200, 400, 600 -> predicted next = 800.
            hist.push(&EpochStats::new(e, 1.0, vec![900, e * 200, 0]));
        }
        let d = decide_roles(&[900.0, 600.0, 0.0], &hist, &cfg());
        assert!(
            d.pairings.iter().all(|p| p.importer != MdsRank(1)),
            "rising rank must not be an importer: {:?}",
            d.pairings
        );
        // The genuinely idle rank 2 still imports.
        assert!(d.pairings.iter().any(|p| p.importer == MdsRank(2)));
    }

    #[test]
    fn below_threshold_deviation_ignored() {
        // 4% relative deviation, squared = 0.0016 < L = 0.02.
        let d = decide_roles(&[104.0, 100.0, 96.0], &no_history(), &cfg());
        assert!(d.pairings.is_empty());
    }

    #[test]
    fn export_import_totals_match() {
        let d = decide_roles(&[500.0, 400.0, 10.0, 5.0], &no_history(), &cfg());
        let exported: f64 = d.pairings.iter().map(|p| p.amount).sum();
        let per_importer: f64 = d
            .importers
            .iter()
            .map(|(r, _)| {
                d.pairings
                    .iter()
                    .filter(|p| p.importer == *r)
                    .map(|p| p.amount)
                    .sum::<f64>()
            })
            .sum();
        assert!((exported - per_importer).abs() < 1e-9);
        // No importer receives more than its capacity.
        for (r, cap) in &d.importers {
            let got: f64 = d
                .pairings
                .iter()
                .filter(|p| p.importer == *r)
                .map(|p| p.amount)
                .sum();
            assert!(got <= cap + 1e-9);
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert!(decide_roles(&[], &no_history(), &cfg()).pairings.is_empty());
        assert!(decide_roles(&[5.0], &no_history(), &cfg())
            .pairings
            .is_empty());
        assert!(decide_roles(&[0.0, 0.0], &no_history(), &cfg())
            .pairings
            .is_empty());
    }

    #[test]
    fn weighted_targets_respect_capacity_shares() {
        // Rank 0 is twice as powerful; a 2:1 load split is the *balanced*
        // state under capacity weighting and must produce no migration.
        let caps = [200.0, 100.0];
        let d = decide_roles_weighted(&[200.0, 100.0], Some(&caps), &no_history(), &cfg());
        assert!(
            d.pairings.is_empty(),
            "capacity-proportional load is balanced"
        );
        // An even split, by contrast, overloads the weak rank.
        let d = decide_roles_weighted(&[150.0, 150.0], Some(&caps), &no_history(), &cfg());
        assert_eq!(d.exporters.len(), 1);
        assert_eq!(d.exporters[0].0, MdsRank(1), "the weak rank must export");
        assert!(d.pairings.iter().all(|p| p.importer == MdsRank(0)));
    }

    #[test]
    fn weighted_with_none_matches_homogeneous() {
        let loads = [500.0, 400.0, 10.0, 5.0];
        let a = decide_roles(&loads, &no_history(), &cfg());
        let b = decide_roles_weighted(&loads, None, &no_history(), &cfg());
        assert_eq!(a.pairings, b.pairings);
    }

    #[test]
    fn weighted_handles_zero_capacity_vector() {
        let caps = [0.0, 0.0];
        // Degenerate capacities fall back to the mean-based targets.
        let d = decide_roles_weighted(&[900.0, 10.0], Some(&caps), &no_history(), &cfg());
        assert!(!d.pairings.is_empty());
    }
}
