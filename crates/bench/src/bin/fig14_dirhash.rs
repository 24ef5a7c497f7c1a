//! Figure 14: the Dir-Hash deep-dive on the Web workload — (a) inodes
//! spread evenly across MDSs by static hashing, yet (b) the request load is
//! skewed and cannot be re-balanced, and path traversal forwards are much
//! higher than dynamic subtree partitioning's.

use lunule_bench::{default_sim, run_experiment, write_json, CommonArgs, ExperimentConfig};
use lunule_core::{Balancer, BalancerKind, DirHashBalancer};
use lunule_namespace::{MdsRank, SubtreeMap};
use lunule_workloads::{WorkloadKind, WorkloadSpec};

fn main() {
    let args = CommonArgs::parse();
    let spec = WorkloadSpec {
        kind: WorkloadKind::Web,
        clients: args.clients,
        scale: args.scale,
        seed: args.seed,
    };
    // (a) Static inode distribution: apply the pinning and count.
    let (ns, _) = spec.build();
    let mut map = SubtreeMap::new(MdsRank(0));
    let mut pinning = DirHashBalancer;
    pinning.setup(&ns, &mut map, 5);
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
    let mut rows = Vec::new();
    for balancer in [
        BalancerKind::DirHash,
        BalancerKind::Vanilla,
        BalancerKind::Lunule,
    ] {
        let r = run_experiment(&ExperimentConfig {
            workload: spec,
            balancer,
            sim: default_sim(),
        });
        rows.push(r);
    }
    println!("\n# Fig 14b — runtime request distribution and forwards");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>9}",
        "balancer", "mds.0", "mds.1", "mds.2", "mds.3", "mds.4", "forwards", "fwd/op"
    );
    let mut dump = Vec::new();
    for r in &rows {
        let total: u64 = r.per_mds_requests_total.iter().sum();
        let shares: Vec<f64> = r
            .per_mds_requests_total
            .iter()
            .map(|c| *c as f64 / total.max(1) as f64 * 100.0)
            .collect();
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
    let lu = rows[2].total_forwards() as f64;
    let va = rows[1].total_forwards() as f64;
    println!(
        "\nDir-Hash forwards vs Vanilla: {:+.1}% | vs Lunule: {:+.1}%",
        (dh / va - 1.0) * 100.0,
        (dh / lu - 1.0) * 100.0
    );
    write_json(&args.out_dir, "fig14_dirhash", &(inode_counts, dump));
}
