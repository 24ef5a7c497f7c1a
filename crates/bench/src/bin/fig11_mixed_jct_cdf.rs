//! Figure 11: CDF of job completion time across all clients under the
//! mixed workload, Lunule vs Vanilla. The paper's tail numbers: Lunule's
//! p99 completion is ~1.4x better, and ~80 % of clients finish markedly
//! earlier.

use lunule_bench::{
    default_sim, print_series, run_grid, write_json, CommonArgs, ExperimentConfig, Series,
};
use lunule_core::BalancerKind;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

fn main() {
    let args = CommonArgs::parse();
    let cells: Vec<ExperimentConfig> = [BalancerKind::Vanilla, BalancerKind::Lunule]
        .iter()
        .map(|b| ExperimentConfig {
            workload: WorkloadSpec {
                kind: WorkloadKind::Mixed,
                clients: args.clients,
                scale: args.scale,
                seed: args.seed,
            },
            balancer: *b,
            sim: lunule_sim::SimConfig {
                duration_secs: 14_400,
                ..default_sim()
            },
        })
        .collect();
    let results = run_grid(&cells);

    let series: Vec<Series> = results
        .iter()
        .map(|r| {
            let mut done: Vec<u64> = r
                .client_completion_secs
                .iter()
                .flatten()
                .map(|t| u64::from(*t))
                .collect();
            done.sort_unstable();
            let n = r.client_completion_secs.len().max(1) as f64;
            Series::new(
                r.balancer.clone(),
                done.iter()
                    .enumerate()
                    .map(|(i, t)| (*t as f64 / 60.0, (i + 1) as f64 / n))
                    .collect(),
            )
        })
        .collect();
    // For the CDF, x is time and y is the fraction — print percentile rows.
    print_series(
        "Fig 11 — JCT CDF points (x=min, y=fraction)",
        "min",
        &series,
    );

    println!("\n# completion-time percentiles (minutes)");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8}",
        "balancer", "p50", "p80", "p99", "max"
    );
    for r in &results {
        let p = |q: f64| {
            r.jct_percentile(q)
                .map(|v| format!("{:.1}", v as f64 / 60.0))
                .unwrap_or_else(|| "n/a".into())
        };
        println!(
            "{:<10} {:>8} {:>8} {:>8} {:>8}",
            r.balancer,
            p(0.5),
            p(0.8),
            p(0.99),
            p(1.0)
        );
    }
    write_json(&args.out_dir, "fig11_mixed_jct_cdf", &series);
}
