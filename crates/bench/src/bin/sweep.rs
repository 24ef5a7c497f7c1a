//! Sensitivity sweeps over the design parameters the paper fixes by fiat:
//! epoch length (10 s), migration bandwidth, the IF trigger threshold, and
//! the urgency smoothness `S` (0.2). Each sweep varies one knob with the
//! others at defaults and reports the quality/overhead trade-off, so a
//! deployment can see how sharp each cliff is.
//!
//! All four knob grids are flattened into one cell list and run on the
//! worker pool (`--jobs`); results print grouped in knob order, so the
//! transcript and the JSON dump are identical for any pool width.
//!
//! The runtime-tunable knobs (`if_threshold`, `if_smoothness`) get a second,
//! **warm-started** pass: the pre-change prefix (the first half of the run)
//! is simulated once and snapshotted, and every variant restores that common
//! prefix before its knob lands — the grid pays for the shared warm-up
//! exactly once, and every variant sees the knob change mid-flight on
//! byte-identical state.

use lunule_bench::{default_sim, write_json, CommonArgs};
use lunule_core::{IfModelConfig, LunuleBalancer, LunuleConfig, RoleConfig};
use lunule_sim::{SimConfig, Simulation};
use lunule_util::WorkerPool;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

fn run(spec: &WorkloadSpec, sim: SimConfig, lunule: LunuleConfig) -> lunule_sim::RunResult {
    let (ns, streams) = spec.build();
    Simulation::new(
        sim.clone(),
        ns,
        Box::new(LunuleBalancer::new(lunule)),
        streams,
    )
    .run()
}

fn lunule_cfg(sim: &SimConfig) -> LunuleConfig {
    LunuleConfig {
        if_model: IfModelConfig {
            mds_capacity: sim.mds_capacity,
            ..IfModelConfig::default()
        },
        roles: RoleConfig {
            migration_capacity: sim.mds_capacity * 0.5,
        },
        ..LunuleConfig::default()
    }
}

/// One sweep cell: which knob group it belongs to, the knob value, and the
/// fully-resolved configuration pair to run.
struct Cell {
    group: &'static str,
    title: &'static str,
    x_label: &'static str,
    x: f64,
    sim: SimConfig,
    lunule: LunuleConfig,
}

fn main() {
    let args = CommonArgs::parse();
    let spec = WorkloadSpec {
        kind: WorkloadKind::ZipfRead,
        clients: args.clients,
        scale: args.scale,
        seed: args.seed,
    };
    let base = default_sim();
    let mut cells: Vec<Cell> = Vec::new();

    for epoch in [2u64, 5, 10, 20, 40] {
        let sim = SimConfig {
            epoch_secs: epoch,
            ..base.clone()
        };
        let lunule = lunule_cfg(&sim);
        cells.push(Cell {
            group: "epoch_secs",
            title: "# sweep: epoch length (re-balance interval)",
            x_label: "epoch (s)",
            x: epoch as f64,
            sim,
            lunule,
        });
    }
    for bw in [500.0f64, 1_000.0, 5_000.0, 20_000.0, 100_000.0] {
        let sim = SimConfig {
            migration_bw: bw,
            ..base.clone()
        };
        let lunule = lunule_cfg(&sim);
        cells.push(Cell {
            group: "migration_bw",
            title: "# sweep: migration bandwidth (inodes/s per exporter)",
            x_label: "bw",
            x: bw,
            sim,
            lunule,
        });
    }
    for threshold in [0.02f64, 0.05, 0.10, 0.20, 0.40] {
        cells.push(Cell {
            group: "if_threshold",
            title: "# sweep: IF trigger threshold",
            x_label: "threshold",
            x: threshold,
            sim: base.clone(),
            lunule: LunuleConfig {
                if_threshold: threshold,
                ..lunule_cfg(&base)
            },
        });
    }
    for s in [0.05f64, 0.1, 0.2, 0.4, 0.8] {
        cells.push(Cell {
            group: "smoothness",
            title: "# sweep: urgency smoothness S",
            x_label: "S",
            x: s,
            sim: base.clone(),
            lunule: LunuleConfig {
                if_model: IfModelConfig {
                    mds_capacity: base.mds_capacity,
                    smoothness: s,
                },
                ..lunule_cfg(&base)
            },
        });
    }

    let results =
        WorkerPool::new(args.jobs).map(&cells, |_, c| run(&spec, c.sim.clone(), c.lunule.clone()));

    let mut dump: Vec<(String, f64, f64, f64, u64)> = Vec::new();
    let mut current_group = "";
    for (cell, r) in cells.iter().zip(&results) {
        if cell.group != current_group {
            if !current_group.is_empty() {
                println!();
            }
            current_group = cell.group;
            println!("{}", cell.title);
            println!(
                "{:>10} {:>9} {:>10} {:>10}",
                cell.x_label, "mean IF", "mean IOPS", "migrated"
            );
        }
        println!(
            "{:>10} {:>9.3} {:>10.0} {:>10}",
            cell.x,
            r.mean_if(),
            r.mean_iops(),
            r.migrated_inodes()
        );
        dump.push((
            cell.group.into(),
            cell.x,
            r.mean_if(),
            r.mean_iops(),
            r.migrated_inodes(),
        ));
    }

    // Warm-started pass over the runtime knobs: one shared prefix, then
    // restore-per-variant. Restoring with the same config and a freshly
    // built stream set is exactly the daemon's crash-recovery path, so this
    // doubles as a continuous exercise of the snapshot machinery.
    // `stop_when_done` ends runs well before `duration_secs` at small
    // scales, so anchor the snapshot at half the *observed* stop tick — a
    // point where client work is guaranteed to remain — rather than half
    // the nominal duration (where the flip would land on a drained
    // cluster and every variant would tie).
    let warm_tick = {
        let (ns, streams) = spec.build();
        let mut probe = Simulation::new(
            base.clone(),
            ns,
            Box::new(LunuleBalancer::new(lunule_cfg(&base))),
            streams,
        );
        probe.run_until(base.duration_secs);
        probe.now() / 2
    };
    let snap = {
        let (ns, streams) = spec.build();
        let mut warm = Simulation::new(
            base.clone(),
            ns,
            Box::new(LunuleBalancer::new(lunule_cfg(&base))),
            streams,
        );
        warm.run_until(warm_tick);
        warm.snapshot()
    };

    struct WarmCell {
        knob: &'static str,
        x: f64,
    }
    let mut warm_cells: Vec<WarmCell> = Vec::new();
    for threshold in [0.02f64, 0.05, 0.10, 0.20, 0.40] {
        warm_cells.push(WarmCell {
            knob: "if_threshold",
            x: threshold,
        });
    }
    for s in [0.05f64, 0.1, 0.2, 0.4, 0.8] {
        warm_cells.push(WarmCell {
            knob: "if_smoothness",
            x: s,
        });
    }
    let warm_results = WorkerPool::new(args.jobs).map(&warm_cells, |_, c| {
        let (_ns, streams) = spec.build();
        let mut sim = Simulation::restore(
            base.clone(),
            Box::new(LunuleBalancer::new(lunule_cfg(&base))),
            streams,
            &snap,
        )
        .expect("warm-start restore from the shared prefix snapshot");
        assert!(
            sim.set_balancer_knob(c.knob, c.x),
            "balancer rejected knob {}",
            c.knob
        );
        sim.run_until(base.duration_secs);
        sim.finish()
    });

    let mut current_knob = "";
    for (cell, r) in warm_cells.iter().zip(&warm_results) {
        if cell.knob != current_knob {
            current_knob = cell.knob;
            println!();
            println!(
                "# warm-started sweep: {} flipped at tick {warm_tick}",
                cell.knob
            );
            println!(
                "{:>10} {:>9} {:>10} {:>10}",
                cell.knob, "mean IF", "mean IOPS", "migrated"
            );
        }
        println!(
            "{:>10} {:>9.3} {:>10.0} {:>10}",
            cell.x,
            r.mean_if(),
            r.mean_iops(),
            r.migrated_inodes()
        );
        dump.push((
            format!("warm:{}", cell.knob),
            cell.x,
            r.mean_if(),
            r.mean_iops(),
            r.migrated_inodes(),
        ));
    }

    write_json(&args.out_dir, "sweep", &dump);
}
