//! Full-workload invariant sweeps: runs real simulations across the bundled
//! workloads and audits the whole stack with `lunule-verify` after every
//! tick, with the full battery at every epoch close. The audit panics on
//! the first violation, so a green run of this file is the "zero
//! violations over a full simulation" acceptance check.

use lunule_core::{make_balancer, BalancerKind};
use lunule_sim::{SimConfig, Simulation};
use lunule_verify::InvariantChecker;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

/// Runs `kind` under `balancer`, auditing the simulation's public state
/// after every tick.
fn run_audited(kind: WorkloadKind, balancer: BalancerKind) {
    let (ns, streams) = WorkloadSpec {
        kind,
        clients: 8,
        scale: 0.01,
        seed: 7,
    }
    .build();
    let cfg = SimConfig {
        n_mds: 3,
        mds_capacity: 200.0,
        epoch_secs: 5,
        duration_secs: 120,
        stop_when_done: true,
        migration_bw: 2_000.0,
        migration_freeze_secs: 1,
        migration_op_cost: 0.02,
        client_rate: 30.0,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(
        cfg.clone(),
        ns,
        make_balancer(balancer, cfg.mds_capacity),
        streams,
    );
    let mut checker = InvariantChecker::default();
    while sim.step() {
        checker.audit_simulation(&sim);
    }
    // The run stops once every client is done, which may fall between
    // epoch closes: check the final state's partitions and conservation.
    checker.check_frag_partitions(sim.namespace());
    checker.check_conservation(sim.namespace(), sim.subtree_map(), sim.n_mds());
    checker.assert_clean();
    let result = sim.finish();
    assert!(result.total_ops > 0, "{kind:?}/{balancer:?} served nothing");
}

#[test]
fn zipf_read_under_lunule_is_invariant_clean() {
    run_audited(WorkloadKind::ZipfRead, BalancerKind::Lunule);
}

#[test]
fn zipf_read_under_vanilla_is_invariant_clean() {
    run_audited(WorkloadKind::ZipfRead, BalancerKind::Vanilla);
}

#[test]
fn web_trace_under_lunule_is_invariant_clean() {
    run_audited(WorkloadKind::Web, BalancerKind::Lunule);
}

#[test]
fn md_full_under_lunule_is_invariant_clean() {
    run_audited(WorkloadKind::MdFull, BalancerKind::Lunule);
}

#[test]
fn mixed_under_lunule_is_invariant_clean() {
    run_audited(WorkloadKind::Mixed, BalancerKind::Lunule);
}

/// Grouped readers at one op per member per tick, on ranks that serve a
/// small part of the demand, with an epoch every 2 ticks. A cohort that
/// stalls on budget carries its op and its route into the next tick,
/// and the tick that serves that op draws nothing after it at this rate,
/// so a mutation that forgot to move the change stamp leaves the stamp
/// the stall or the last merge keyed on: the audit's change-stamp check
/// then sees a held route or a stored hash that a fresh computation
/// contradicts.
#[test]
fn rate_one_stalls_under_lunule_are_invariant_clean() {
    let spec = lunule_bench::ScaleSpec {
        clients: 4_000,
        groups: 16,
        dirs: 64,
        files_per_dir: 16,
        n_mds: 4,
        duration_secs: 60,
        epoch_secs: 2,
        seed: 7,
    };
    let (ns, targets) = lunule_bench::build_namespace(&spec);
    let groups: Vec<(Box<dyn lunule_sim::OpStream>, u64)> = targets
        .into_iter()
        .map(|ids| {
            let stream = lunule_sim::FixedStream::new(ids);
            (Box::new(stream) as Box<dyn lunule_sim::OpStream>, 250)
        })
        .collect();
    let cfg = SimConfig {
        n_mds: spec.n_mds,
        mds_capacity: 150.0,
        epoch_secs: spec.epoch_secs,
        duration_secs: spec.duration_secs,
        stop_when_done: false,
        client_rate: 1.0,
        seed: spec.seed,
        ..SimConfig::default()
    };
    let balancer = make_balancer(BalancerKind::Lunule, cfg.mds_capacity);
    let mut sim = Simulation::new_grouped(cfg, ns, balancer, groups);
    let mut checker = InvariantChecker::default();
    while sim.step() {
        checker.audit_simulation(&sim);
    }
    assert!(sim.n_flows() > 16, "the groups must split");
    assert!(sim.total_ops() > 0);
}
