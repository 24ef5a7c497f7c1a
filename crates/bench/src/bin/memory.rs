//! Extension experiment: metadata-memory pressure. The Fig. 6 caption of
//! the paper notes that the MDtest runs ended early because the MDSs ran
//! out of memory; this binary reproduces the mechanism with the simulator's
//! resident-inode memory model — a rank whose authoritative metadata
//! outgrows its cache limit thrashes against the object store and serves
//! at a fraction of its rate. Balancing helps twice here: it spreads load
//! *and* it spreads the memory footprint.

use lunule_bench::{default_sim, epoch_series, print_series, write_json, CommonArgs};
use lunule_core::{make_balancer, BalancerKind};
use lunule_sim::Simulation;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

fn main() {
    let args = CommonArgs::parse();
    let spec = WorkloadSpec {
        kind: WorkloadKind::MdCreate,
        clients: args.clients,
        scale: args.scale,
        seed: args.seed,
    };
    // Cluster-wide memory comfortably exceeds the dataset only when the
    // footprint is spread: per-rank limit = dataset / 4 on a 5-rank
    // cluster, so any rank hoarding much more than its share thrashes.
    let total_creates = (100_000.0 * args.scale) as u64 * args.clients as u64;
    let limit = total_creates / 4;
    println!(
        "# MDtest with per-MDS memory limit {limit} resident inodes (dataset grows to {total_creates})"
    );
    println!(
        "{:<12} {:>10} {:>10} {:>14} {:>16}",
        "balancer", "mean IOPS", "peak IOPS", "final inodes", "max resident/mds"
    );
    let mut dump = Vec::new();
    let mut series = Vec::new();
    for kind in [BalancerKind::Vanilla, BalancerKind::Lunule] {
        let sim = lunule_sim::SimConfig {
            mds_memory_inodes: limit,
            memory_thrash_factor: 0.25,
            duration_secs: 2_400,
            ..default_sim()
        };
        let (ns, streams) = spec.build();
        let balancer = make_balancer(kind, sim.mds_capacity);
        let r = Simulation::new(sim, ns, balancer, streams).run();
        let max_resident = r
            .epochs
            .iter()
            .flat_map(|e| e.per_mds_resident_inodes.iter().copied())
            .max()
            .unwrap_or(0);
        println!(
            "{:<12} {:>10.0} {:>10.0} {:>14} {:>16}",
            r.balancer,
            r.mean_iops(),
            r.peak_iops(),
            r.final_inodes,
            max_resident
        );
        series.push(epoch_series(format!("{} IOPS", r.balancer), &r, |e| {
            e.total_iops
        }));
        series.push(epoch_series(
            format!("{} max-resident", r.balancer),
            &r,
            |e| e.per_mds_resident_inodes.iter().copied().max().unwrap_or(0) as f64,
        ));
        dump.push((kind.label(), r.mean_iops(), max_resident));
    }
    print_series(
        "Memory pressure — throughput and hottest rank's resident inodes",
        "min",
        &series,
    );
    write_json(&args.out_dir, "memory_pressure", &dump);
}
