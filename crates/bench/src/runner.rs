//! Experiment runner: builds a workload, wires it to a balancer and a
//! simulation, and runs grids of such combinations in parallel.

use lunule_core::{make_balancer, BalancerKind};
use lunule_sim::{RunResult, SimConfig, Simulation};
use lunule_util::WorkerPool;
use lunule_workloads::WorkloadSpec;

/// One experiment cell: a workload, a balancer, and simulator settings.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// The workload to run.
    pub workload: WorkloadSpec,
    /// The balancing policy.
    pub balancer: BalancerKind,
    /// Simulator parameters.
    pub sim: SimConfig,
}

/// The simulator settings the experiments default to. MDS capacity is
/// scaled down from the testbed's (absolute IOPS are not comparable anyway)
/// so that full runs complete in seconds of wall time; what matters is that
/// 100 clients at `client_rate` comfortably saturate a single MDS — the
/// condition that makes balancing matter.
pub fn default_sim() -> SimConfig {
    SimConfig {
        n_mds: 5,
        mds_capacity: 500.0,
        epoch_secs: 10,
        duration_secs: 1_800,
        stop_when_done: true,
        migration_bw: 5_000.0,
        migration_freeze_secs: 1,
        migration_op_cost: 0.02,
        client_rate: 50.0,
        mds_capacities: Vec::new(),
        client_cache_cap: 256,
        mds_memory_inodes: 0,
        memory_thrash_factor: 0.25,
        data_path: None,
        seed: 42,
        ..SimConfig::default()
    }
}

/// Runs one experiment cell to completion.
pub fn run_experiment(cfg: &ExperimentConfig) -> RunResult {
    let (ns, streams) = cfg.workload.build();
    let balancer = make_balancer(cfg.balancer, cfg.sim.mds_capacity);
    Simulation::new(cfg.sim.clone(), ns, balancer, streams).run()
}

/// Runs a grid of experiment cells on the sanctioned worker pool, `jobs`
/// wide (`0` = auto); the experiment binaries pass their `--jobs` flag.
/// Each cell is single-threaded and deterministic, so the grid's results
/// are independent of scheduling and worker count.
pub fn run_grid_jobs(cells: &[ExperimentConfig], jobs: usize) -> Vec<RunResult> {
    WorkerPool::new(jobs).map(cells, |_, cell| run_experiment(cell))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lunule_workloads::WorkloadKind;

    fn tiny_cell(kind: WorkloadKind, balancer: BalancerKind) -> ExperimentConfig {
        ExperimentConfig {
            workload: WorkloadSpec {
                kind,
                clients: 4,
                scale: 0.002,
                seed: 1,
            },
            balancer,
            sim: SimConfig {
                duration_secs: 120,
                ..default_sim()
            },
        }
    }

    #[test]
    fn single_cell_runs() {
        let r = run_experiment(&tiny_cell(WorkloadKind::ZipfRead, BalancerKind::Lunule));
        assert!(r.total_ops > 0);
        assert!(!r.epochs.is_empty());
    }

    #[test]
    fn grid_matches_individual_runs() {
        let cells = vec![
            tiny_cell(WorkloadKind::ZipfRead, BalancerKind::Vanilla),
            tiny_cell(WorkloadKind::ZipfRead, BalancerKind::Lunule),
        ];
        let grid = run_grid_jobs(&cells, 0);
        let solo: Vec<_> = cells.iter().map(run_experiment).collect();
        for (g, s) in grid.iter().zip(&solo) {
            assert_eq!(g.total_ops, s.total_ops);
            assert_eq!(g.per_mds_requests_total, s.per_mds_requests_total);
        }
    }

    #[test]
    fn grid_results_are_independent_of_worker_count() {
        let cells = vec![
            tiny_cell(WorkloadKind::ZipfRead, BalancerKind::Vanilla),
            tiny_cell(WorkloadKind::ZipfRead, BalancerKind::Lunule),
            tiny_cell(WorkloadKind::ZipfRead, BalancerKind::GreedySpill),
        ];
        let one = run_grid_jobs(&cells, 1);
        let four = run_grid_jobs(&cells, 4);
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.total_ops, b.total_ops);
            assert_eq!(a.per_mds_requests_total, b.per_mds_requests_total);
            assert_eq!(a.epochs.len(), b.epochs.len());
        }
    }
}
