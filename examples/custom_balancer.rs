//! Extension scenario: plugging a custom policy into the simulator.
//!
//! The `Balancer` trait is the seam the paper's Mantle framework exposes in
//! CephFS; here we implement a deliberately simple "round-robin spill"
//! policy in ~40 lines and race it against the built-in GreedySpill and
//! Lunule on the MDtest workload.
//!
//! ```sh
//! cargo run --release --example custom_balancer
//! ```

use lunule::core::{
    build_candidates, make_balancer, select_hottest, Access, Balancer, BalancerKind, EpochStats,
    ExportTask, HeatMap, MigrationPlan,
};
use lunule::namespace::{MdsRank, Namespace, SubtreeMap};
use lunule::sim::{SimConfig, Simulation};
use lunule::workloads::{WorkloadKind, WorkloadSpec};

/// Every epoch, the busiest rank spills a fixed quantum of its hottest
/// subtrees to the least busy rank. No model, no thresholds.
struct RoundRobinSpill {
    heat: HeatMap,
    quantum: f64,
}

impl RoundRobinSpill {
    fn new(quantum: f64) -> Self {
        RoundRobinSpill {
            heat: HeatMap::new(),
            quantum,
        }
    }
}

impl Balancer for RoundRobinSpill {
    fn name(&self) -> &'static str {
        "RoundRobinSpill"
    }

    fn record_access(&mut self, ns: &Namespace, access: Access) {
        self.heat.record(ns, access.ino);
    }

    fn on_epoch(&mut self, ns: &Namespace, map: &SubtreeMap, stats: &EpochStats) -> MigrationPlan {
        self.heat.decay_epoch();
        let loads = stats.iops();
        let Some(busiest) = (0..loads.len()).max_by(|a, b| loads[*a].total_cmp(&loads[*b])) else {
            return MigrationPlan::default();
        };
        let Some(idlest) = (0..loads.len()).min_by(|a, b| loads[*a].total_cmp(&loads[*b])) else {
            return MigrationPlan::default();
        };
        if busiest == idlest || loads[busiest] < 2.0 * loads[idlest] + 1.0 {
            return MigrationPlan::default();
        }
        let heat = &self.heat;
        let candidates = build_candidates(ns, map, &|d| heat.heat_of(d));
        let exporter = MdsRank(busiest as u16);
        let subtrees = select_hottest(ns, &candidates, self.quantum, exporter);
        if subtrees.is_empty() {
            return MigrationPlan::default();
        }
        MigrationPlan {
            exports: vec![ExportTask {
                from: exporter,
                to: MdsRank(idlest as u16),
                target_amount: self.quantum,
                subtrees,
            }],
        }
    }
}

fn main() {
    let spec = WorkloadSpec {
        kind: WorkloadKind::MdCreate,
        clients: 30,
        scale: 0.02,
        seed: 5,
    };
    let cfg = SimConfig {
        n_mds: 5,
        mds_capacity: 300.0,
        epoch_secs: 10,
        duration_secs: 1_200,
        client_rate: 40.0,
        ..SimConfig::default()
    };

    println!("custom policy vs built-ins, MDtest create\n");
    println!(
        "{:<20} {:>9} {:>10} {:>10}",
        "balancer", "mean IF", "mean IOPS", "migrated"
    );
    for balancer in [
        Box::new(RoundRobinSpill::new(2_000.0)) as Box<dyn Balancer>,
        make_balancer(BalancerKind::GreedySpill, cfg.mds_capacity),
        make_balancer(BalancerKind::Lunule, cfg.mds_capacity),
    ] {
        let (ns, streams) = spec.build();
        let result = Simulation::new(cfg.clone(), ns, balancer, streams).run();
        println!(
            "{:<20} {:>9.3} {:>10.0} {:>10}",
            result.balancer,
            result.mean_if(),
            result.mean_iops(),
            result.migrated_inodes()
        );
    }
}
