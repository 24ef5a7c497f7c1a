//! Figure 12: Lunule's dynamic adaptation under the Zipfian workload.
//!
//! * (a) MDS cluster expansion: 4 MDSs at start, one more added at the
//!   10- and 20-minute marks — the new ranks absorb load and the
//!   aggregate throughput steps up.
//! * (b) client growth: 10 clients at start, 10 more at each phase —
//!   per-MDS load rises in even steps, and the early benign imbalance does
//!   not trigger needless re-balances.

use lunule_bench::{default_sim, epoch_series, per_mds_iops, print_series, write_json, CommonArgs};
use lunule_core::{make_balancer, BalancerKind};
use lunule_sim::Simulation;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

fn main() {
    let args = CommonArgs::parse();
    expansion(&args);
    client_growth(&args);
}

/// Fig 12(a): add one MDS at 10 and at 20 minutes.
fn expansion(args: &CommonArgs) {
    // Quadruple the op budget so clients outlast all three phases.
    let spec = WorkloadSpec {
        kind: WorkloadKind::ZipfRead,
        clients: args.clients,
        scale: (args.scale * 4.0).min(1.0),
        seed: args.seed,
    };
    let sim_cfg = lunule_sim::SimConfig {
        n_mds: 4,
        stop_when_done: false,
        duration_secs: 1_800,
        ..default_sim()
    };
    let (ns, streams) = spec.build();
    let balancer = make_balancer(BalancerKind::Lunule, sim_cfg.mds_capacity);
    let mut sim = Simulation::new(sim_cfg.clone(), ns, balancer, streams);
    sim.run_until(600);
    sim.add_mds();
    sim.run_until(1200);
    sim.add_mds();
    sim.run_until(1800);
    let r = sim.finish();

    let mut series = per_mds_iops(&r, 6);
    series.push(epoch_series("total", &r, |e| e.total_iops));
    print_series(
        "Fig 12a — MDS expansion 4 -> 5 -> 6 (adds at 10 and 20 min), Lunule, Zipf",
        "min",
        &series,
    );
    let phase_mean = |lo: u64, hi: u64| {
        let v: Vec<f64> = r
            .epochs
            .iter()
            .filter(|e| e.time_secs > lo && e.time_secs <= hi)
            .map(|e| e.total_iops)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    println!(
        "phase means: 4 MDSs {:.0} IOPS | 5 MDSs {:.0} IOPS | 6 MDSs {:.0} IOPS",
        phase_mean(60, 600),
        phase_mean(660, 1200),
        phase_mean(1260, 1800)
    );
    write_json(&args.out_dir, "fig12a_expansion", &series);
}

/// Fig 12(b): 4 phases of 10 extra clients each.
fn client_growth(args: &CommonArgs) {
    let per_phase = (args.clients / 4).max(1);
    let sim_cfg = lunule_sim::SimConfig {
        stop_when_done: false,
        duration_secs: 1_600,
        ..default_sim()
    };
    // Build one Zipf workload sized for all phases, hand the streams out in
    // batches so every phase's clients use their own private directory.
    let spec = WorkloadSpec {
        kind: WorkloadKind::ZipfRead,
        clients: per_phase * 4,
        scale: (args.scale * 4.0).min(1.0),
        seed: args.seed,
    };
    let (ns, mut streams) = spec.build();
    let rest = streams.split_off(per_phase);
    let balancer = make_balancer(BalancerKind::Lunule, sim_cfg.mds_capacity);
    let mut sim = Simulation::new(sim_cfg.clone(), ns, balancer, streams);
    let mut rest = rest;
    for phase in 1..4u64 {
        sim.run_until(phase * 400);
        let next: Vec<_> = rest.drain(..per_phase.min(rest.len())).collect();
        sim.add_clients(next);
    }
    sim.run_until(1_600);
    let r = sim.finish();

    let mut series = per_mds_iops(&r, 5);
    series.push(epoch_series("total", &r, |e| e.total_iops));
    print_series(
        &format!(
            "Fig 12b — client growth {per_phase} -> {} in 4 phases, Lunule, Zipf",
            per_phase * 4
        ),
        "min",
        &series,
    );
    write_json(&args.out_dir, "fig12b_client_growth", &series);
}
