//! The paper's mixed-workload figures (four client groups running
//! CNN/NLP/Web/Zipf concurrently), from one simulation each under Vanilla
//! and Lunule, run for up to four hours.
//!
//! - Fig 9: imbalance factor over the first two hours. Vanilla fluctuates
//!   up to ~0.6 and re-skews whenever a client group finishes; Lunule stays
//!   near zero and finishes the whole mixture sooner.
//! - Fig 10: per-MDS IOPS over the first two hours. Vanilla's panel shows
//!   skewed, sloshing loads; Lunule's shows five tight, even bands with a
//!   higher aggregate.
//! - Fig 11: CDF of job completion time across all clients. Lunule's p99
//!   completion is ~1.4x better, and ~80 % of clients finish markedly
//!   earlier.

use lunule_bench::{
    default_sim, epoch_series, per_mds_iops, print_series, run_grid_jobs, write_json, CommonArgs,
    ExperimentConfig, Series, TelemetrySink,
};
use lunule_core::BalancerKind;
use lunule_sim::{RunResult, SimConfig};
use lunule_workloads::{WorkloadKind, WorkloadSpec};

/// How long Fig 11 lets the mixture run: long enough for every client to
/// finish.
const JCT_SECS: u64 = 14_400;

/// The window Figs 9 and 10 plot.
const WINDOW_SECS: u64 = 7_200;

fn main() {
    let args = CommonArgs::parse();
    let mut sink = TelemetrySink::from_args(&args);
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
            sim: SimConfig {
                duration_secs: JCT_SECS,
                telemetry: sink.handle(&format!("mixed_{}", b.label())),
                ..default_sim()
            },
        })
        .collect();
    let results = run_grid_jobs(&cells, args.jobs);
    let window: Vec<RunResult> = results.iter().map(|r| cut(r, WINDOW_SECS)).collect();
    fig9(&args, &window);
    fig10(&args, &window);
    fig11(&args, &results);
    sink.flush_and_report();
}

/// `r` as a run capped at `secs` would report it: the epochs up to `secs`
/// and a duration of at most `secs`. The simulator is deterministic, so a
/// run's first `secs` do not depend on how long it may go on.
fn cut(r: &RunResult, secs: u64) -> RunResult {
    let mut cut = r.clone();
    cut.epochs.retain(|e| e.time_secs <= secs);
    cut.duration_secs = cut.duration_secs.min(secs);
    cut
}

fn fig9(args: &CommonArgs, results: &[RunResult]) {
    let series: Vec<Series> = results
        .iter()
        .map(|r| epoch_series(r.balancer.clone(), r, |e| e.imbalance_factor))
        .collect();
    print_series("Fig 9 — imbalance factor, mixed workload", "min", &series);
    for r in results {
        println!(
            "{:<10} mean IF {:.3}, max IF {:.3}, finished at {} min",
            r.balancer,
            r.mean_if(),
            r.epochs
                .iter()
                .map(|e| e.imbalance_factor)
                .fold(0.0, f64::max),
            r.duration_secs / 60
        );
    }
    write_json(&args.out_dir, "fig9_mixed_if", &series);
}

fn fig10(args: &CommonArgs, results: &[RunResult]) {
    for r in results {
        let n_mds = r.epochs.last().map(|e| e.per_mds_iops.len()).unwrap_or(0);
        let mut series = per_mds_iops(r, n_mds);
        series.push(epoch_series("total", r, |e| e.total_iops));
        print_series(
            &format!("Fig 10 — per-MDS IOPS, mixed workload, {}", r.balancer),
            "min",
            &series,
        );
        write_json(
            &args.out_dir,
            &format!(
                "fig10_mixed_{}",
                r.balancer.to_lowercase().replace('-', "_")
            ),
            &series,
        );
    }
}

fn fig11(args: &CommonArgs, results: &[RunResult]) {
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
    for r in results {
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
