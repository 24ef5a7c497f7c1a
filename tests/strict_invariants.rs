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
