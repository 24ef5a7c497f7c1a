//! Extension experiment: MDS failure / decommission. The paper only grows
//! the cluster (Fig. 12a); here a rank is drained mid-run — its subtrees
//! fail over to the survivors — and the series shows the throughput dip
//! and Lunule re-balancing the failed-over load.

use lunule_bench::{default_sim, epoch_series, per_mds_iops, print_series, write_json, CommonArgs};
use lunule_core::{make_balancer, BalancerKind};
use lunule_namespace::MdsRank;
use lunule_sim::Simulation;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

fn main() {
    let args = CommonArgs::parse();
    let spec = WorkloadSpec {
        kind: WorkloadKind::ZipfRead,
        clients: args.clients,
        scale: (args.scale * 4.0).min(1.0),
        seed: args.seed,
    };
    let sim_cfg = lunule_sim::SimConfig {
        stop_when_done: false,
        duration_secs: 1_200,
        ..default_sim()
    };
    let (ns, streams) = spec.build();
    let balancer = make_balancer(BalancerKind::Lunule, sim_cfg.mds_capacity);
    let mut sim = Simulation::new(sim_cfg.clone(), ns, balancer, streams);

    sim.run_until(600);
    println!("draining mds.2 at t=600s (subtrees fail over to the least-loaded survivors)");
    sim.drain_mds(MdsRank(2));
    sim.run_until(1_200);
    let r = sim.finish();

    let mut series = per_mds_iops(&r, 5);
    series.push(epoch_series("total", &r, |e| e.total_iops));
    print_series(
        "Resilience — per-MDS IOPS around a rank drain at t=10 min, Lunule, Zipf",
        "min",
        &series,
    );
    let phase = |lo: u64, hi: u64| {
        let v: Vec<f64> = r
            .epochs
            .iter()
            .filter(|e| e.time_secs > lo && e.time_secs <= hi)
            .map(|e| e.total_iops)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    println!(
        "aggregate: before drain {:.0} IOPS | first 2 min after {:.0} | steady after {:.0}",
        phase(120, 600),
        phase(600, 720),
        phase(720, 1_200),
    );
    write_json(&args.out_dir, "resilience", &series);
}
