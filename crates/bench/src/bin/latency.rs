//! Extension experiment: per-op stall-latency distributions across
//! balancers. The paper names latency as one of its three metrics
//! (throughput, latency, job completion time); in the closed-loop
//! simulation the observable is how many ticks each op spends stalled
//! behind a saturated or frozen MDS before it is served.

use lunule_bench::{default_sim, run_grid_jobs, write_json, CommonArgs, ExperimentConfig};
use lunule_core::BalancerKind;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

fn main() {
    let args = CommonArgs::parse();
    for kind in [
        WorkloadKind::Cnn,
        WorkloadKind::ZipfRead,
        WorkloadKind::Mixed,
    ] {
        let cells: Vec<ExperimentConfig> = BalancerKind::FIG6_SET
            .iter()
            .map(|b| ExperimentConfig {
                workload: WorkloadSpec {
                    kind,
                    clients: args.clients,
                    scale: args.scale,
                    seed: args.seed,
                },
                balancer: *b,
                sim: lunule_sim::SimConfig {
                    duration_secs: 3_600,
                    ..default_sim()
                },
            })
            .collect();
        let results = run_grid_jobs(&cells, args.jobs);
        println!("\n# stall latency — {kind} (ticks an op waits before service)");
        println!(
            "{:<14} {:>10} {:>8} {:>6} {:>6} {:>6} {:>6}",
            "balancer", "immediate", "mean", "p50", "p90", "p99", "p999"
        );
        let mut dump = Vec::new();
        for r in &results {
            println!(
                "{:<14} {:>9.1}% {:>8.3} {:>6} {:>6} {:>6} {:>6}",
                r.balancer,
                r.latency.immediate_share() * 100.0,
                r.latency.mean(),
                r.latency.percentile(0.5),
                r.latency.percentile(0.9),
                r.latency.percentile(0.99),
                r.latency.percentile(0.999),
            );
            dump.push((
                r.balancer.clone(),
                r.latency.immediate_share(),
                r.latency.mean(),
                r.latency.percentile(0.99),
            ));
        }
        write_json(
            &args.out_dir,
            &format!("latency_{}", kind.label().to_lowercase()),
            &dump,
        );
    }
}
