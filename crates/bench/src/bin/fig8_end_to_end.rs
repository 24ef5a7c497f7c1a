//! Figure 8: end-to-end job completion time with data access enabled, for
//! CNN / NLP / Zipf / Web under Vanilla vs Lunule.
//!
//! The paper reports 18.6–64.6 % JCT reduction for CNN/NLP/Zipf and limited
//! gains for Web (its metadata imbalance is low to begin with, and the data
//! path dilutes what remains).

use lunule_bench::{default_sim, run_grid_jobs, write_json, CommonArgs, ExperimentConfig};
use lunule_core::BalancerKind;
use lunule_sim::DataPathConfig;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

fn main() {
    let args = CommonArgs::parse();
    let workloads = [
        WorkloadKind::Cnn,
        WorkloadKind::Nlp,
        WorkloadKind::ZipfRead,
        WorkloadKind::Web,
    ];
    let sim = lunule_sim::SimConfig {
        // ~12 OSDs at ~200 MB/s each, scaled like the datasets: enough that
        // metadata dominates (the paper's premise) while the CNN dataset's
        // bulk reads remain visible in the completion time.
        data_path: Some(DataPathConfig::with_bandwidth((2.4e10 * args.scale) as u64)),
        duration_secs: 40_000,
        ..default_sim()
    };
    let mut cells = Vec::new();
    for kind in workloads {
        for balancer in [BalancerKind::Vanilla, BalancerKind::Lunule] {
            cells.push(ExperimentConfig {
                workload: WorkloadSpec {
                    kind,
                    clients: args.clients,
                    scale: args.scale,
                    seed: args.seed,
                },
                balancer,
                sim: sim.clone(),
            });
        }
    }
    let results = run_grid_jobs(&cells, args.jobs);

    println!("# Fig 8 — end-to-end job completion time (data access enabled)");
    println!(
        "{:<6} {:>16} {:>16} {:>10}",
        "wl", "Vanilla JCT(s)", "Lunule JCT(s)", "reduction"
    );
    let mut dump = Vec::new();
    for (i, kind) in workloads.iter().enumerate() {
        let vanilla = &results[i * 2];
        let lunule = &results[i * 2 + 1];
        let jct = |r: &lunule_sim::RunResult| {
            r.jct_percentile(0.99)
                .map(|v| v as f64)
                .unwrap_or(r.duration_secs as f64)
        };
        let (jv, jl) = (jct(vanilla), jct(lunule));
        let reduction = (jv - jl) / jv * 100.0;
        println!(
            "{:<6} {:>16.0} {:>16.0} {:>9.1}%",
            kind.label(),
            jv,
            jl,
            reduction
        );
        dump.push((kind.label(), jv, jl, reduction));
    }
    write_json(&args.out_dir, "fig8_end_to_end_jct", &dump);
}
