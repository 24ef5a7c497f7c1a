//! Figure 13: (a) Lunule's peak throughput as the MDS cluster grows from 1
//! to 16 ranks under the MDtest workload — expected to scale near-linearly
//! until the fixed client population stops saturating the cluster; and
//! (c) the scale frontier beyond the paper's cluster. Part (b), Lunule vs
//! CephFS-Vanilla vs Dir-Hash on Web, reads the runs of `single_workloads`.

use lunule_bench::{
    build_sim, default_sim, run_grid_jobs, write_json, CommonArgs, ExperimentConfig, ScaleSpec,
};
use lunule_core::BalancerKind;
use lunule_telemetry::Telemetry;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

fn main() {
    let args = CommonArgs::parse();
    scalability(&args);
    scale_frontier(&args);
}

/// Fig 13(a): peak IOPS vs MDS count.
fn scalability(args: &CommonArgs) {
    let counts = [1usize, 2, 4, 8, 12, 16];
    let cells: Vec<ExperimentConfig> = counts
        .iter()
        .map(|n| ExperimentConfig {
            workload: WorkloadSpec {
                kind: WorkloadKind::MdCreate,
                clients: args.clients,
                scale: args.scale,
                seed: args.seed,
            },
            balancer: BalancerKind::Lunule,
            sim: lunule_sim::SimConfig {
                n_mds: *n,
                ..default_sim()
            },
        })
        .collect();
    let results = run_grid_jobs(&cells, args.jobs);
    println!("# Fig 13a — Lunule scalability, MDtest create");
    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>12}",
        "MDSs", "peak IOPS", "mean IOPS", "linear ref", "efficiency"
    );
    let base = results[0].peak_iops().max(1.0);
    let mut dump = Vec::new();
    for (n, r) in counts.iter().zip(&results) {
        let linear = base * *n as f64;
        let eff = r.peak_iops() / linear * 100.0;
        println!(
            "{:<6} {:>10.0} {:>10.0} {:>10.0} {:>11.1}%",
            n,
            r.peak_iops(),
            r.mean_iops(),
            linear,
            eff
        );
        dump.push((*n, r.peak_iops(), r.mean_iops(), eff));
    }
    write_json(&args.out_dir, "fig13a_scalability", &dump);
}

/// Fig 13(c): the scale frontier the paper never reaches — 32 to 128 ranks
/// under a million-client cohort population on a 10^7-inode namespace.
/// Quick mode shrinks the population two orders so the parallel-determinism
/// test's `--quick` runs stay within CI budgets; the `megascale` binary owns the full-size CI gate.
fn scale_frontier(args: &CommonArgs) {
    let (counts, base): (&[usize], ScaleSpec) = if args.quick {
        (
            &[32],
            ScaleSpec {
                clients: 10_000,
                dirs: 250,
                files_per_dir: 400,
                duration_secs: 8,
                epoch_secs: 4,
                ..ScaleSpec::quick()
            },
        )
    } else {
        (&[32, 64, 128], ScaleSpec::full())
    };
    println!("\n# Fig 13c — scale frontier, cohort client model");
    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>10}",
        "MDSs", "clients", "flows", "total ops", "peak IOPS"
    );
    let mut dump = Vec::new();
    for n in counts {
        let spec = ScaleSpec {
            n_mds: *n,
            seed: args.seed,
            ..base
        };
        let sim = build_sim(&spec, Telemetry::disabled());
        let flows = sim.n_flows();
        let r = sim.run();
        println!(
            "{:<6} {:>10} {:>10} {:>10} {:>10.0}",
            n,
            spec.clients,
            flows,
            r.total_ops,
            r.peak_iops()
        );
        dump.push((*n, spec.clients, flows, r.total_ops, r.peak_iops()));
    }
    write_json(&args.out_dir, "fig13c_scale_frontier", &dump);
}
