//! Chaos run: replays a fault schedule — scripted or seeded — against a
//! Lunule-balanced cluster and reports how service and migration behave
//! around crashes, limps, report losses, and migration stalls.
//!
//! The schedule comes from `--faults <spec>` (see `lunule_faults::parse_spec`);
//! without the flag a default seeded profile derived from `--seed` is used,
//! so `cargo run -p lunule-bench --bin chaos` is a one-command chaos soak.

use lunule_bench::{
    default_sim, epoch_series, per_mds_iops, print_series, write_json, CommonArgs, TelemetrySink,
};
use lunule_core::{make_balancer, BalancerKind};
use lunule_sim::{seeded, ChaosProfile, SimConfig, Simulation};
use lunule_workloads::{WorkloadKind, WorkloadSpec};

const N_MDS: usize = 5;
const DURATION: u64 = 1_200;

fn main() {
    let args = CommonArgs::parse();
    let mut sink = TelemetrySink::from_args(&args);
    let duration = if args.quick { 300 } else { DURATION };

    let schedule = match &args.faults {
        Some(spec) => match lunule_faults::parse_spec(spec, N_MDS, duration) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bad --faults spec: {e}");
                std::process::exit(2);
            }
        },
        None => seeded(args.seed, N_MDS, duration, &ChaosProfile::default()),
    };
    println!(
        "chaos: {} fault events over {duration}s (seed {})",
        schedule.len(),
        args.seed
    );

    let spec = WorkloadSpec {
        kind: WorkloadKind::ZipfRead,
        clients: args.clients,
        scale: (args.scale * 4.0).min(1.0),
        seed: args.seed,
    };
    let sim_cfg = SimConfig {
        n_mds: N_MDS,
        stop_when_done: false,
        duration_secs: duration,
        migration_timeout_ticks: 30,
        migration_max_retries: 3,
        migration_backoff_ticks: 5,
        seed: args.seed,
        telemetry: sink.handle("chaos"),
        faults: schedule,
        ..default_sim()
    };
    let (ns, streams) = spec.build();
    let balancer = make_balancer(BalancerKind::Lunule, sim_cfg.mds_capacity);
    let mut sim = Simulation::new(sim_cfg.clone(), ns, balancer, streams);
    sim.run_until(duration);

    let c = sim.migration_counters();
    let inflight = sim.inflight_migrations();
    let tel = sim.telemetry().clone();
    assert_eq!(
        c.started_jobs,
        c.completed_jobs + c.abandoned_jobs + inflight,
        "migration ledger failed to balance"
    );
    println!(
        "faults injected: {} | crashes: {} | recoveries: {}",
        tel.count_kind("fault_injected"),
        tel.count_kind("rank_crashed"),
        tel.count_kind("rank_recovered"),
    );
    println!(
        "migrations: {} started | {} committed | {} abandoned | {} in flight | {} timeouts | {} retries",
        c.started_jobs, c.completed_jobs, c.abandoned_jobs, inflight, c.timed_out_jobs, c.retried_jobs,
    );

    let r = sim.finish();
    let mut series = per_mds_iops(&r, N_MDS);
    series.push(epoch_series("total", &r, |e| e.total_iops));
    print_series(
        "Chaos — per-MDS IOPS under a fault schedule, Lunule, Zipf",
        "min",
        &series,
    );
    write_json(&args.out_dir, "chaos", &series);
    match sink.flush() {
        Ok(files) => {
            for f in files {
                println!("telemetry: {}", f.display());
            }
        }
        Err(e) => eprintln!("telemetry export failed: {e}"),
    }
}
