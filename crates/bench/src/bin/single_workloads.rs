//! The paper's single-workload figures, from one simulation per cell: the
//! five workloads under the four balancers of Fig 6, plus Web under
//! Dir-Hash. Every figure reads the same 21 runs.
//!
//! - Fig 2: per-MDS share of all requests under Vanilla. Even with active
//!   migration the load stays skewed; CNN's busiest MDS serves ~90 %.
//! - Fig 3: per-MDS IOPS over time under Vanilla. Zipf sloshes between
//!   MDSs (ping-pong); on CNN one MDS does all the work.
//! - Fig 4: cumulative migrated inodes under Vanilla. Zipf migrates in
//!   bursts despite persistent imbalance; CNN migrates continuously into
//!   subtrees that are never visited again.
//! - Fig 6: imbalance factor over time. Lunule stays lowest nearly
//!   everywhere, GreedySpill sits near 1, and Vanilla only handles the
//!   temporally-local workloads.
//! - Fig 7: aggregate IOPS over time. Lunule improves CNN by ~2.8x over
//!   Vanilla, NLP by ~1.8x, and stays ahead on the temporally-local
//!   workloads by smaller margins.
//! - Fig 13b: Lunule vs Vanilla vs Dir-Hash on Web.
//! - Fig 14: Dir-Hash on Web spreads inodes evenly, yet its request load
//!   is skewed, cannot be re-balanced, and forwards far more than dynamic
//!   subtree partitioning.

use lunule_bench::{
    default_sim, epoch_series, per_mds_iops, print_series, run_grid_jobs, write_json, CommonArgs,
    ExperimentConfig, Series, TelemetrySink,
};
use lunule_core::{Balancer, BalancerKind, DirHashBalancer};
use lunule_namespace::{MdsRank, SubtreeMap};
use lunule_sim::{EpochRecord, RunResult, SimConfig};
use lunule_workloads::{WorkloadKind, WorkloadSpec};

/// The 21 runs, each under its (workload, balancer) key.
struct Grid {
    keys: Vec<(WorkloadKind, BalancerKind)>,
    results: Vec<RunResult>,
}

impl Grid {
    fn run(&self, kind: WorkloadKind, balancer: BalancerKind) -> &RunResult {
        let i = self
            .keys
            .iter()
            .position(|k| *k == (kind, balancer))
            .unwrap_or_else(|| panic!("{kind} under {} is not in the grid", balancer.label()));
        &self.results[i]
    }
}

fn main() {
    let args = CommonArgs::parse();
    let mut sink = TelemetrySink::from_args(&args);
    let mut keys: Vec<(WorkloadKind, BalancerKind)> = WorkloadKind::SINGLES
        .iter()
        .flat_map(|kind| BalancerKind::FIG6_SET.map(|b| (*kind, b)))
        .collect();
    keys.push((WorkloadKind::Web, BalancerKind::DirHash));
    let cells: Vec<ExperimentConfig> = keys
        .iter()
        .map(|(kind, b)| ExperimentConfig {
            workload: spec(&args, *kind),
            balancer: *b,
            sim: SimConfig {
                telemetry: sink.handle(&format!("{}_{}", kind.label(), b.label())),
                ..default_sim()
            },
        })
        .collect();
    let grid = Grid {
        results: run_grid_jobs(&cells, args.jobs),
        keys,
    };
    fig2(&args, &grid);
    fig3(&args, &grid);
    fig4(&args, &grid);
    fig6(&args, &grid);
    fig7(&args, &grid);
    fig13b(&args, &grid);
    fig14(&args, &grid);
    sink.flush_and_report();
}

fn spec(args: &CommonArgs, kind: WorkloadKind) -> WorkloadSpec {
    WorkloadSpec {
        kind,
        clients: args.clients,
        scale: args.scale,
        seed: args.seed,
    }
}

/// Each MDS's share of the run's requests, in percent.
fn request_shares(r: &RunResult) -> Vec<f64> {
    let total: u64 = r.per_mds_requests_total.iter().sum();
    r.per_mds_requests_total
        .iter()
        .map(|c| *c as f64 / total.max(1) as f64 * 100.0)
        .collect()
}

/// Ranks in the run's last epoch.
fn n_ranks(r: &RunResult) -> usize {
    r.epochs.last().map(|e| e.per_mds_iops.len()).unwrap_or(0)
}

fn fig2(args: &CommonArgs, grid: &Grid) {
    println!("# Fig 2 — metadata request distribution, Vanilla balancer, 5 MDSs");
    println!(
        "{:<6} {:>8} {:>8} {:>8} {:>8} {:>8}   {:>9}",
        "wl", "mds.0", "mds.1", "mds.2", "mds.3", "mds.4", "max/min"
    );
    let mut dump = Vec::new();
    for kind in WorkloadKind::SINGLES {
        let r = grid.run(kind, BalancerKind::Vanilla);
        let shares = request_shares(r);
        let max = r.per_mds_requests_total.iter().max().copied().unwrap_or(0);
        let min = r.per_mds_requests_total.iter().min().copied().unwrap_or(0);
        let ratio = max as f64 / min.max(1) as f64;
        println!(
            "{:<6} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%   {:>8.1}x",
            kind.label(),
            shares[0],
            shares[1],
            shares[2],
            shares[3],
            shares[4],
            ratio
        );
        dump.push((kind.label(), shares, ratio));
    }
    write_json(&args.out_dir, "fig2_request_distribution", &dump);
}

fn fig3(args: &CommonArgs, grid: &Grid) {
    for kind in [WorkloadKind::ZipfRead, WorkloadKind::Cnn] {
        let r = grid.run(kind, BalancerKind::Vanilla);
        let series = per_mds_iops(r, n_ranks(r));
        print_series(
            &format!("Fig 3 — per-MDS IOPS over time, Vanilla, {kind}"),
            "min",
            &series,
        );
        write_json(
            &args.out_dir,
            &format!("fig3_permds_{}", kind.label().to_lowercase()),
            &series,
        );
    }
}

fn fig4(args: &CommonArgs, grid: &Grid) {
    let series: Vec<Series> = [WorkloadKind::ZipfRead, WorkloadKind::Cnn]
        .iter()
        .map(|kind| {
            epoch_series(
                format!("{kind} (Vanilla)"),
                grid.run(*kind, BalancerKind::Vanilla),
                |e| e.migrated_inodes_cum as f64,
            )
        })
        .collect();
    print_series(
        "Fig 4 — cumulative migrated inodes, Vanilla",
        "min",
        &series,
    );
    write_json(&args.out_dir, "fig4_migrated_inodes", &series);
}

/// Prints one table per workload of `y` over time under every Fig 6
/// balancer, and dumps each as `<stem>_<workload>.json`.
fn per_workload_series(
    args: &CommonArgs,
    grid: &Grid,
    title: &str,
    stem: &str,
    y: fn(&EpochRecord) -> f64,
) {
    for kind in WorkloadKind::SINGLES {
        let series: Vec<Series> = BalancerKind::FIG6_SET
            .iter()
            .map(|b| {
                let r = grid.run(kind, *b);
                epoch_series(r.balancer.clone(), r, y)
            })
            .collect();
        print_series(&format!("{title}, {kind}"), "min", &series);
        write_json(
            &args.out_dir,
            &format!("{stem}_{}", kind.label().to_lowercase()),
            &series,
        );
    }
}

fn fig6(args: &CommonArgs, grid: &Grid) {
    per_workload_series(args, grid, "Fig 6 — imbalance factor", "fig6_if", |e| {
        e.imbalance_factor
    });
    println!("\n# mean IF summary (lower is better)");
    println!(
        "{:<6} {:>10} {:>12} {:>13} {:>8}",
        "wl", "Vanilla", "GreedySpill", "Lunule-Light", "Lunule"
    );
    let mut summary: Vec<(String, String, f64)> = Vec::new();
    for kind in WorkloadKind::SINGLES {
        let row = BalancerKind::FIG6_SET.map(|b| grid.run(kind, b));
        println!(
            "{:<6} {:>10.3} {:>12.3} {:>13.3} {:>8.3}",
            kind.label(),
            row[0].mean_if(),
            row[1].mean_if(),
            row[2].mean_if(),
            row[3].mean_if()
        );
        for r in row {
            summary.push((kind.label().to_string(), r.balancer.clone(), r.mean_if()));
        }
    }
    write_json(&args.out_dir, "fig6_mean_if_summary", &summary);
}

fn fig7(args: &CommonArgs, grid: &Grid) {
    per_workload_series(
        args,
        grid,
        "Fig 7 — aggregate metadata throughput (IOPS)",
        "fig7_iops",
        |e| e.total_iops,
    );
    println!("\n# mean IOPS summary (higher is better; x = vs Vanilla)");
    println!(
        "{:<6} {:>9} {:>12} {:>13} {:>9} {:>9}",
        "wl", "Vanilla", "GreedySpill", "Lunule-Light", "Lunule", "speedup"
    );
    let mut summary: Vec<(String, String, f64, f64)> = Vec::new();
    for kind in WorkloadKind::SINGLES {
        let row = BalancerKind::FIG6_SET.map(|b| grid.run(kind, b));
        println!(
            "{:<6} {:>9.0} {:>12.0} {:>13.0} {:>9.0} {:>8.2}x",
            kind.label(),
            row[0].mean_iops(),
            row[1].mean_iops(),
            row[2].mean_iops(),
            row[3].mean_iops(),
            row[3].mean_iops() / row[0].mean_iops()
        );
        for r in row {
            summary.push((
                kind.label().to_string(),
                r.balancer.clone(),
                r.mean_iops(),
                r.peak_iops(),
            ));
        }
    }
    write_json(&args.out_dir, "fig7_iops_summary", &summary);
}

fn fig13b(args: &CommonArgs, grid: &Grid) {
    println!("\n# Fig 13b — Lunule vs Vanilla vs Dir-Hash, Web workload");
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>10}",
        "balancer", "mean IOPS", "peak IOPS", "JCT p99 (s)", "forwards"
    );
    let mut dump = Vec::new();
    for b in [
        BalancerKind::Lunule,
        BalancerKind::Vanilla,
        BalancerKind::DirHash,
    ] {
        let r = grid.run(WorkloadKind::Web, b);
        let jct = r
            .jct_percentile(0.99)
            .map(|v| v.to_string())
            .unwrap_or_else(|| "n/a".into());
        println!(
            "{:<10} {:>10.0} {:>10.0} {:>12} {:>10}",
            r.balancer,
            r.mean_iops(),
            r.peak_iops(),
            jct,
            r.total_forwards()
        );
        dump.push((
            r.balancer.clone(),
            r.mean_iops(),
            r.peak_iops(),
            r.total_forwards(),
        ));
    }
    write_json(&args.out_dir, "fig13b_hash_comparison", &dump);
}

fn fig14(args: &CommonArgs, grid: &Grid) {
    // (a) Static inode distribution: apply the pinning and count.
    let (ns, _) = spec(args, WorkloadKind::Web).build();
    let mut map = SubtreeMap::new(MdsRank(0));
    DirHashBalancer.setup(&ns, &mut map, 5);
    let inode_counts = map.inode_counts(&ns, 5);
    let total_inodes: usize = inode_counts.iter().sum();
    println!("# Fig 14a — Dir-Hash inode distribution (static)");
    println!("{:>8} {:>10} {:>8}", "rank", "inodes", "share");
    for (rank, c) in inode_counts.iter().enumerate() {
        println!(
            "{:>8} {:>10} {:>7.1}%",
            format!("mds.{rank}"),
            c,
            *c as f64 / total_inodes as f64 * 100.0
        );
    }

    // (b) Runtime request distribution + forwards vs the dynamic balancers.
    let rows = [
        BalancerKind::DirHash,
        BalancerKind::Vanilla,
        BalancerKind::Lunule,
    ]
    .map(|b| grid.run(WorkloadKind::Web, b));
    println!("\n# Fig 14b — runtime request distribution and forwards");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>9}",
        "balancer", "mds.0", "mds.1", "mds.2", "mds.3", "mds.4", "forwards", "fwd/op"
    );
    let mut dump = Vec::new();
    for r in rows {
        let shares = request_shares(r);
        println!(
            "{:<10} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>10} {:>9.3}",
            r.balancer,
            shares[0],
            shares[1],
            shares[2],
            shares[3],
            shares[4],
            r.total_forwards(),
            r.total_forwards() as f64 / r.total_ops.max(1) as f64
        );
        dump.push((r.balancer.clone(), shares, r.total_forwards(), r.total_ops));
    }
    let dh = rows[0].total_forwards() as f64;
    let va = rows[1].total_forwards() as f64;
    let lu = rows[2].total_forwards() as f64;
    println!(
        "\nDir-Hash forwards vs Vanilla: {:+.1}% | vs Lunule: {:+.1}%",
        (dh / va - 1.0) * 100.0,
        (dh / lu - 1.0) * 100.0
    );
    write_json(&args.out_dir, "fig14_dirhash", &(inode_counts, dump));
}
