//! Quick sanity run: one workload × all balancers, printing summary rows.
//! Useful for eyeballing whether the simulation produces the paper's
//! qualitative ordering before running the full figure suite.

use lunule_bench::{default_sim, run_grid_jobs, CommonArgs, ExperimentConfig, TelemetrySink};
use lunule_core::BalancerKind;
use lunule_sim::SimConfig;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

fn main() {
    let args = CommonArgs::parse();
    let mut sink = TelemetrySink::from_args(&args);
    let kinds = [
        BalancerKind::Vanilla,
        BalancerKind::GreedySpill,
        BalancerKind::LunuleLight,
        BalancerKind::Lunule,
    ];
    for workload in [WorkloadKind::ZipfRead, WorkloadKind::Cnn] {
        let cells: Vec<ExperimentConfig> = kinds
            .iter()
            .map(|b| ExperimentConfig {
                workload: WorkloadSpec {
                    kind: workload,
                    clients: args.clients,
                    scale: args.scale,
                    seed: args.seed,
                },
                balancer: *b,
                sim: SimConfig {
                    telemetry: sink.handle(&format!("smoke_{workload}_{}", b.label())),
                    ..default_sim()
                },
            })
            .collect();
        let t0 = std::time::Instant::now();
        let results = run_grid_jobs(&cells, args.jobs);
        println!(
            "\n== {workload} (scale {}, {} clients; {:.1}s wall) ==",
            args.scale,
            args.clients,
            t0.elapsed().as_secs_f64()
        );
        println!(
            "{:<14} {:>9} {:>10} {:>10} {:>10} {:>12} {:>9}",
            "balancer", "mean IF", "mean IOPS", "peak IOPS", "migrated", "total ops", "sim secs"
        );
        for r in &results {
            println!(
                "{:<14} {:>9.3} {:>10.0} {:>10.0} {:>10} {:>12} {:>9}",
                r.balancer,
                r.mean_if(),
                r.mean_iops(),
                r.peak_iops(),
                r.migrated_inodes(),
                r.total_ops,
                r.duration_secs
            );
        }
    }
    sink.flush_and_report();
}
