//! Chaos soak: many seeded fault schedules replayed against full
//! simulations, each audited by `lunule-verify` after every tick
//! (including the authority-never-on-a-down-rank check, and at every epoch
//! close the migration-lifecycle ledger against the telemetry journal),
//! so a green run of this file is the "zero violations across ≥50 seeded
//! fault schedules" acceptance check.

use lunule_core::{make_balancer, BalancerKind};
use lunule_sim::{seeded, ChaosProfile, SimConfig, Simulation};
use lunule_util::propcheck;
use lunule_verify::InvariantChecker;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

/// One chaos case: a seeded schedule against a small, migration-heavy
/// cluster. Returns nothing — every property is asserted inside.
fn soak_one(seed: u64, profile: &ChaosProfile) {
    const N_MDS: usize = 4;
    const DURATION: u64 = 140;
    let (ns, streams) = WorkloadSpec {
        kind: WorkloadKind::ZipfRead,
        clients: 6,
        scale: 0.005,
        seed: seed ^ 0x9E37,
    }
    .build();
    let cfg = SimConfig {
        n_mds: N_MDS,
        mds_capacity: 100.0,
        epoch_secs: 4,
        duration_secs: DURATION,
        stop_when_done: false,
        migration_bw: 25.0,
        migration_freeze_secs: 1,
        migration_op_cost: 0.02,
        migration_timeout_ticks: 6,
        migration_max_retries: 2,
        migration_backoff_ticks: 2,
        client_rate: 30.0,
        seed,
        telemetry: lunule_telemetry::Telemetry::enabled(),
        faults: seeded(seed, N_MDS, DURATION, profile),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(
        cfg.clone(),
        ns,
        make_balancer(BalancerKind::Lunule, cfg.mds_capacity),
        streams,
    );
    // Every tick is audited. At each epoch close, the last tick included,
    // the audit checks the migration ledger: started == committed +
    // abandoned + in-flight, where in flight counts jobs parked for a
    // retry, so a timed-out job is never silently lost. It also checks
    // that the journal's start, commit and abandon counts match.
    let mut checker = InvariantChecker::default();
    while sim.step() {
        checker.audit_simulation(&sim);
    }
    let c = sim.migration_counters();
    assert!(
        c.retried_jobs <= c.timed_out_jobs,
        "every retry stems from a timeout (seed {seed})"
    );

    // Timeouts and retries narrate the same story in the journal as in
    // the counters.
    let tel = sim.telemetry().clone();
    assert_eq!(tel.count_kind("migration_timeout"), c.timed_out_jobs);
    assert_eq!(tel.count_kind("migration_retry"), c.retried_jobs);
    assert_eq!(
        tel.count_kind("rank_crashed"),
        tel.count_kind("rank_recovered") + sim.down_ranks().iter().filter(|d| **d).count() as u64,
        "every crash recovered or is still down (seed {seed})"
    );

    let result = sim.finish();
    assert!(result.total_ops > 0, "cluster went dark (seed {seed})");
}

#[test]
fn chaos_soak_many_seeded_schedules() {
    // ≥50 distinct seeds, each with a schedule whose shape also varies
    // with the case seed, run on the worker pool (width from LUNULE_JOBS,
    // defaulting to the machine's parallelism — cases derive independent
    // RNGs, so the checked cases are identical at any width). The harness
    // prints the lowest failing seed on panic, so any violation is
    // replayable in isolation.
    propcheck::run_par(60, 0, |rng| {
        let profile = ChaosProfile {
            crashes: rng.gen_range(0..3),
            limps: rng.gen_range(0..3),
            report_losses: rng.gen_range(0..3),
            migration_stalls: rng.gen_range(0..4),
            min_down_ticks: 5,
            max_down_ticks: 60,
        };
        soak_one(rng.next_u64(), &profile);
    });
}

#[test]
fn chaos_soak_crash_heavy() {
    // A meaner profile: every fault class present, long outages, on top of
    // the same deterministic harness.
    let profile = ChaosProfile {
        crashes: 3,
        limps: 2,
        report_losses: 2,
        migration_stalls: 3,
        min_down_ticks: 20,
        max_down_ticks: 100,
    };
    lunule_util::WorkerPool::auto().map_indices(8, |seed| {
        soak_one(0xC4A0_5000_0000 + seed as u64, &profile);
    });
}
