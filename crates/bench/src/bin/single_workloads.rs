//! The paper's single-workload figures, the ablation of Lunule's
//! mechanisms and the sensitivity sweeps, from one simulation per cell.
//! The grid is the five workloads under the four balancers of Fig 6, plus
//! Web under Dir-Hash. An ablation or sweep row whose configuration is a
//! grid cell reads that cell; only the non-default variants add cells.
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
//! - Ablation: which of Lunule's design choices carries how much of the
//!   win on CNN and Zipf. Beyond the paper's Lunule-Light, it toggles off,
//!   one at a time: the urgency term (U ≡ 1), the importer future-load
//!   correction, sibling-correlation propagation, and the per-epoch
//!   migration-capacity clamp.
//! - Sweep: Zipf under Lunule with one of the parameters the paper fixes
//!   by fiat varied at a time — epoch length (10 s), migration bandwidth,
//!   the IF trigger threshold and the urgency smoothness `S` (0.2) — so a
//!   deployment can see how sharp each cliff is. The runtime-tunable knobs
//!   (`if_threshold`, `if_smoothness`) get a second, warm-started pass: the
//!   first half of the default run is simulated once and snapshotted, and
//!   every variant restores that prefix before its knob lands mid-flight.

use lunule_bench::{
    default_sim, epoch_series, per_mds_iops, print_series, write_json, CommonArgs, Series,
    TelemetrySink,
};
use lunule_core::{
    make_balancer, Balancer, BalancerKind, DirHashBalancer, LunuleBalancer, LunuleConfig,
};
use lunule_namespace::{MdsRank, SubtreeMap};
use lunule_sim::{EpochRecord, RunResult, SimConfig, Simulation};
use lunule_util::WorkerPool;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

/// How a cell builds its balancer. Balancers are boxed trait objects (not
/// `Send`), so each pool worker constructs its own from the recipe.
enum Recipe {
    /// A stock policy, as `make_balancer` builds it.
    Stock(BalancerKind),
    /// A Lunule variant configured by the ablation or a sweep.
    Lunule(LunuleConfig),
}

/// One simulation.
struct Cell {
    workload: WorkloadSpec,
    recipe: Recipe,
    sim: SimConfig,
}

impl Cell {
    fn run(&self) -> RunResult {
        let balancer: Box<dyn Balancer> = match &self.recipe {
            Recipe::Stock(kind) => make_balancer(*kind, self.sim.mds_capacity),
            Recipe::Lunule(cfg) => Box::new(LunuleBalancer::new(cfg.clone())),
        };
        let (ns, streams) = self.workload.build();
        Simulation::new(self.sim.clone(), ns, balancer, streams).run()
    }
}

/// Every cold simulation the figures read. Cell `i < keys.len()` is the
/// stock grid's run of `keys[i]`; the ablation and the sweeps append their
/// non-default variants after those.
struct Grid {
    keys: Vec<(WorkloadKind, BalancerKind)>,
    cells: Vec<Cell>,
    results: Vec<RunResult>,
}

impl Grid {
    fn index(&self, kind: WorkloadKind, balancer: BalancerKind) -> usize {
        self.keys
            .iter()
            .position(|k| *k == (kind, balancer))
            .unwrap_or_else(|| panic!("{kind} under {} is not in the grid", balancer.label()))
    }

    /// Appends a cell no stock key covers and returns its index.
    fn add(&mut self, cell: Cell) -> usize {
        self.cells.push(cell);
        self.cells.len() - 1
    }

    fn run(&self, kind: WorkloadKind, balancer: BalancerKind) -> &RunResult {
        &self.results[self.index(kind, balancer)]
    }
}

fn main() {
    let args = CommonArgs::parse();
    let mut sink = TelemetrySink::from_args(&args);
    let pool = WorkerPool::new(args.jobs);
    let mut keys: Vec<(WorkloadKind, BalancerKind)> = WorkloadKind::SINGLES
        .iter()
        .flat_map(|kind| BalancerKind::FIG6_SET.map(|b| (*kind, b)))
        .collect();
    keys.push((WorkloadKind::Web, BalancerKind::DirHash));
    let cells: Vec<Cell> = keys
        .iter()
        .map(|(kind, b)| Cell {
            workload: spec(&args, *kind),
            recipe: Recipe::Stock(*b),
            sim: SimConfig {
                telemetry: sink.handle(&format!("{}_{}", kind.label(), b.label())),
                ..default_sim()
            },
        })
        .collect();
    let mut grid = Grid {
        keys,
        cells,
        results: Vec::new(),
    };
    let ablation_cells = plan_ablation(&args, &mut grid);
    let knobs = knobs();
    let sweep_cells = plan_sweep(&args, &mut grid, &knobs);
    grid.results = pool.map(&grid.cells, |_, cell| cell.run());
    fig2(&args, &grid);
    fig3(&args, &grid);
    fig4(&args, &grid);
    fig6(&args, &grid);
    fig7(&args, &grid);
    fig13b(&args, &grid);
    fig14(&args, &grid);
    ablation(&args, &grid, &ablation_cells);
    sweep(&args, &grid, &knobs, &sweep_cells, pool);
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

/// The workloads the ablation runs on.
const ABLATION_WORKLOADS: [WorkloadKind; 2] = [WorkloadKind::Cnn, WorkloadKind::ZipfRead];

/// The ablation's variants: full Lunule, each mechanism toggled off alone,
/// and Lunule-Light's heat-based selection. The first and the last are
/// stock grid cells.
fn ablation_variants(capacity: f64) -> [(&'static str, Recipe); 6] {
    let toggle = |off: fn(&mut LunuleConfig)| {
        let mut cfg = LunuleConfig::for_capacity(capacity);
        off(&mut cfg);
        Recipe::Lunule(cfg)
    };
    [
        ("full", Recipe::Stock(BalancerKind::Lunule)),
        ("no-urgency", toggle(|c| c.ablate_urgency = true)),
        ("no-future-load", toggle(|c| c.ablate_future_load = true)),
        (
            "no-sibling",
            toggle(|c| c.analyzer.sibling_probability = 0.0),
        ),
        (
            "no-migration-cap",
            toggle(|c| c.roles.migration_capacity = f64::MAX),
        ),
        (
            "heat-selection (Light)",
            Recipe::Stock(BalancerKind::LunuleLight),
        ),
    ]
}

/// Each ablation row's name and cell, per workload of
/// [`ABLATION_WORKLOADS`].
type AblationCells = Vec<Vec<(&'static str, usize)>>;

fn plan_ablation(args: &CommonArgs, grid: &mut Grid) -> AblationCells {
    ABLATION_WORKLOADS
        .iter()
        .map(|kind| {
            ablation_variants(default_sim().mds_capacity)
                .into_iter()
                .map(|(name, recipe)| {
                    let cell = match recipe {
                        Recipe::Stock(b) => grid.index(*kind, b),
                        recipe => grid.add(Cell {
                            workload: spec(args, *kind),
                            recipe,
                            sim: default_sim(),
                        }),
                    };
                    (name, cell)
                })
                .collect()
        })
        .collect()
}

fn ablation(args: &CommonArgs, grid: &Grid, cells: &AblationCells) {
    let mut dump = Vec::new();
    for (kind, rows) in ABLATION_WORKLOADS.iter().zip(cells) {
        println!("\n# Ablation — {kind}");
        println!(
            "{:<24} {:>9} {:>10} {:>10} {:>10}",
            "variant", "mean IF", "mean IOPS", "migrated", "JCT p99(s)"
        );
        for (name, cell) in rows {
            let r = &grid.results[*cell];
            let jct = r
                .jct_percentile(0.99)
                .map(|x| x.to_string())
                .unwrap_or_else(|| "n/a".into());
            println!(
                "{:<24} {:>9.3} {:>10.0} {:>10} {:>10}",
                name,
                r.mean_if(),
                r.mean_iops(),
                r.migrated_inodes(),
                jct
            );
            dump.push((
                kind.label(),
                *name,
                r.mean_if(),
                r.mean_iops(),
                r.migrated_inodes(),
            ));
        }
    }
    write_json(&args.out_dir, "ablation", &dump);
}

/// A parameter the sweep varies on Zipf under Lunule, the others at their
/// defaults.
struct Knob {
    group: &'static str,
    title: &'static str,
    x_label: &'static str,
    values: [f64; 5],
    /// The default value: its row is the grid's Zipf/Lunule cell.
    default: f64,
    /// Sets the parameter in a cell's configuration.
    apply: fn(&mut SimConfig, &mut LunuleConfig, f64),
    /// The balancer knob that sets it mid-run, if it is tunable at runtime.
    runtime: Option<&'static str>,
}

fn knobs() -> [Knob; 4] {
    let sim = default_sim();
    let lunule = LunuleConfig::default();
    [
        Knob {
            group: "epoch_secs",
            title: "# sweep: epoch length (re-balance interval)",
            x_label: "epoch (s)",
            values: [2.0, 5.0, 10.0, 20.0, 40.0],
            default: sim.epoch_secs as f64,
            apply: |sim, _, x| sim.epoch_secs = x as u64,
            runtime: None,
        },
        Knob {
            group: "migration_bw",
            title: "# sweep: migration bandwidth (inodes/s per exporter)",
            x_label: "bw",
            values: [500.0, 1_000.0, 5_000.0, 20_000.0, 100_000.0],
            default: sim.migration_bw,
            apply: |sim, _, x| sim.migration_bw = x,
            runtime: None,
        },
        Knob {
            group: "if_threshold",
            title: "# sweep: IF trigger threshold",
            x_label: "threshold",
            values: [0.02, 0.05, 0.10, 0.20, 0.40],
            default: lunule.if_threshold,
            apply: |_, lunule, x| lunule.if_threshold = x,
            runtime: Some("if_threshold"),
        },
        Knob {
            group: "smoothness",
            title: "# sweep: urgency smoothness S",
            x_label: "S",
            values: [0.05, 0.1, 0.2, 0.4, 0.8],
            default: lunule.if_model.smoothness,
            apply: |_, lunule, x| lunule.if_model.smoothness = x,
            runtime: Some("if_smoothness"),
        },
    ]
}

/// Whether `x` is `knob`'s default, bit for bit.
fn is_default(knob: &Knob, x: f64) -> bool {
    x.to_bits() == knob.default.to_bits()
}

/// The cell of each knob value, in [`knobs`] order.
fn plan_sweep(args: &CommonArgs, grid: &mut Grid, knobs: &[Knob]) -> Vec<[usize; 5]> {
    let default_cell = grid.index(WorkloadKind::ZipfRead, BalancerKind::Lunule);
    let base = default_sim();
    knobs
        .iter()
        .map(|knob| {
            knob.values.map(|x| {
                if is_default(knob, x) {
                    return default_cell;
                }
                let mut sim = base.clone();
                let mut lunule = LunuleConfig::for_capacity(base.mds_capacity);
                (knob.apply)(&mut sim, &mut lunule, x);
                grid.add(Cell {
                    workload: spec(args, WorkloadKind::ZipfRead),
                    recipe: Recipe::Lunule(lunule),
                    sim,
                })
            })
        })
        .collect()
}

/// Prints one sweep row and appends it to the dump.
fn sweep_row(dump: &mut Vec<(String, f64, f64, f64, u64)>, group: String, x: f64, r: &RunResult) {
    println!(
        "{:>10} {:>9.3} {:>10.0} {:>10}",
        x,
        r.mean_if(),
        r.mean_iops(),
        r.migrated_inodes()
    );
    dump.push((group, x, r.mean_if(), r.mean_iops(), r.migrated_inodes()));
}

fn sweep(args: &CommonArgs, grid: &Grid, knobs: &[Knob], cells: &[[usize; 5]], pool: WorkerPool) {
    let mut dump = Vec::new();
    for (knob, row_cells) in knobs.iter().zip(cells) {
        println!("\n{}", knob.title);
        println!(
            "{:>10} {:>9} {:>10} {:>10}",
            knob.x_label, "mean IF", "mean IOPS", "migrated"
        );
        for (x, cell) in knob.values.iter().zip(row_cells) {
            sweep_row(&mut dump, knob.group.into(), *x, &grid.results[*cell]);
        }
    }

    // Warm-started pass over the runtime knobs: one shared prefix, then
    // restore-per-variant. Restoring with the same config and a freshly
    // built stream set is exactly the daemon's crash-recovery path, so this
    // doubles as a continuous exercise of the snapshot machinery.
    // `stop_when_done` ends runs well before `duration_secs` at small
    // scales, so the snapshot is anchored at half the default run's
    // *observed* length — a point where client work is guaranteed to
    // remain — rather than half the nominal duration (where the flip would
    // land on a drained cluster and every variant would tie).
    let cold = grid.run(WorkloadKind::ZipfRead, BalancerKind::Lunule);
    let anchor = cold.duration_secs / 2;
    let base = default_sim();
    let workload = spec(args, WorkloadKind::ZipfRead);
    let snap = {
        let (ns, streams) = workload.build();
        let balancer = make_balancer(BalancerKind::Lunule, base.mds_capacity);
        let mut warm = Simulation::new(base.clone(), ns, balancer, streams);
        warm.run_until(anchor);
        warm.snapshot()
    };
    let warm_cells: Vec<(&Knob, &'static str, f64)> = knobs
        .iter()
        .filter_map(|knob| knob.runtime.map(|name| (knob, name)))
        .flat_map(|(knob, name)| knob.values.map(|x| (knob, name, x)))
        .collect();
    let warm_results = pool.map(&warm_cells, |_, (_, name, x)| {
        let (_ns, streams) = workload.build();
        let balancer = make_balancer(BalancerKind::Lunule, base.mds_capacity);
        let mut sim = Simulation::restore(base.clone(), balancer, streams, &snap)
            .expect("warm-start restore from the shared prefix snapshot");
        assert!(
            sim.set_balancer_knob(name, *x),
            "balancer rejected knob {name}"
        );
        sim.run_until(base.duration_secs);
        sim.finish()
    });
    let mut current = "";
    for ((knob, name, x), r) in warm_cells.iter().zip(&warm_results) {
        if *name != current {
            current = name;
            println!("\n# warm-started sweep: {name} flipped at tick {anchor}");
            println!(
                "{:>10} {:>9} {:>10} {:>10}",
                name, "mean IF", "mean IOPS", "migrated"
            );
        }
        // Setting a knob to the value the snapshot already holds must
        // leave the run exactly as the cold default run: the restore
        // contract, pinned at full scale.
        assert!(
            !is_default(knob, *x) || r == cold,
            "warm restore with {name} = {x} (its default) diverged from the cold default run"
        );
        sweep_row(&mut dump, format!("warm:{name}"), *x, r);
    }
    write_json(&args.out_dir, "sweep", &dump);
}
