//! Extension experiment: heterogeneous MDS capacities. The paper assumes
//! identical MDSs (footnote 1) and calls heterogeneity orthogonal; this
//! binary runs a cluster where rank 0 is 2x and ranks 3-4 are 0.5x the
//! baseline, and compares
//!
//! * Vanilla (capacity-unaware baseline),
//! * Lunule as published (uniform-capacity model), and
//! * Lunule-hetero (utilisation-based IF + capacity-share targets in
//!   Algorithm 1 — the `capacities` extension of `LunuleConfig`).

use lunule_bench::{default_sim, write_json, CommonArgs};
use lunule_core::{make_balancer, BalancerKind, LunuleBalancer, LunuleConfig};
use lunule_sim::Simulation;
use lunule_util::WorkerPool;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

fn main() {
    let args = CommonArgs::parse();
    let base = default_sim();
    // Rank capacities: one beefy node, two baseline, two weak.
    let caps: Vec<f64> = vec![
        base.mds_capacity * 2.0,
        base.mds_capacity,
        base.mds_capacity,
        base.mds_capacity * 0.5,
        base.mds_capacity * 0.5,
    ];
    let sim = lunule_sim::SimConfig {
        mds_capacities: caps.clone(),
        ..base
    };
    let spec = WorkloadSpec {
        kind: WorkloadKind::ZipfRead,
        clients: args.clients,
        scale: args.scale,
        seed: args.seed,
    };

    println!(
        "# heterogeneous cluster: capacities {:?} (total {})",
        caps,
        caps.iter().sum::<f64>()
    );
    println!(
        "{:<16} {:>9} {:>10} {:>10} {:>10}",
        "balancer", "mean IF", "mean IOPS", "migrated", "JCT p99"
    );
    let mut dump = Vec::new();

    let lunule_cfg = |capacities: Option<Vec<f64>>| LunuleConfig {
        capacities,
        ..LunuleConfig::for_capacity(base.mds_capacity)
    };
    // Balancers are boxed trait objects (not Send), so each pool worker
    // constructs its own from the cell's recipe.
    let rows: Vec<&str> = vec!["Vanilla", "Lunule(uniform)", "Lunule-hetero"];
    let results = WorkerPool::new(args.jobs).map(&rows, |_, name| {
        let balancer: Box<dyn lunule_core::Balancer> = match *name {
            "Vanilla" => make_balancer(BalancerKind::Vanilla, base.mds_capacity),
            "Lunule(uniform)" => Box::new(LunuleBalancer::new(lunule_cfg(None))),
            _ => Box::new(LunuleBalancer::new(lunule_cfg(Some(caps.clone())))),
        };
        let (ns, streams) = spec.build();
        Simulation::new(sim.clone(), ns, balancer, streams).run()
    });
    for (name, r) in rows.iter().zip(results) {
        let jct = r
            .jct_percentile(0.99)
            .map(|v| v.to_string())
            .unwrap_or_else(|| "n/a".into());
        println!(
            "{:<16} {:>9.3} {:>10.0} {:>10} {:>10}",
            name,
            r.mean_if(),
            r.mean_iops(),
            r.migrated_inodes(),
            jct
        );
        dump.push((*name, r.mean_if(), r.mean_iops(), r.migrated_inodes()));
    }
    println!(
        "\nNote: mean IF here is computed by the harness with the uniform model\n\
         (per-rank IOPS dispersion); on a heterogeneous cluster a *higher*\n\
         dispersion can be the correct, capacity-proportional placement —\n\
         compare throughput and completion time, not IF, across these rows."
    );
    write_json(&args.out_dir, "hetero", &dump);
}
