//! Scale smoke: a million-client, 10^7-inode run on 128 simulated ranks.
//! With `--telemetry-out <dir>` it exports the run's journal, metrics and
//! Chrome trace as `megascale.*`, which `telemetry_check <dir>` validates.
//!
//! The run enforces a wall-clock budget (the point of cohorts is that a
//! million clients cost what a few hundred flows cost), overridable via
//! `MEGASCALE_BUDGET_SECS` for slow runners.
//!
//! Usage: `megascale [--quick] [--telemetry-out <dir>]`

use lunule_bench::{write_json, CommonArgs, ScaleSpec, TelemetrySink};
use std::time::Instant;

fn main() {
    let args = CommonArgs::parse();
    let spec = if args.quick {
        ScaleSpec::quick()
    } else {
        ScaleSpec::full()
    };
    let budget_secs: u64 = std::env::var("MEGASCALE_BUDGET_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if args.quick { 900 } else { 3600 });
    println!(
        "# megascale — {} clients, {} inodes, {} ranks, {} ticks",
        spec.clients,
        spec.n_inodes(),
        spec.n_mds,
        spec.duration_secs
    );

    let t0 = Instant::now();
    let mut sink = TelemetrySink::from_args(&args);
    let tel = sink.handle("megascale");
    let sim = lunule_bench::build_sim(&spec, tel);
    let built = t0.elapsed();
    let flows = sim.n_flows();
    let run_start = Instant::now();
    let r = sim.run();
    let ran = run_start.elapsed();
    println!(
        "{} clients as {flows} flow(s); {} ops, peak {:.0} IOPS; build {:.1}s, run {:.1}s",
        spec.clients,
        r.total_ops,
        r.peak_iops(),
        built.as_secs_f64(),
        ran.as_secs_f64()
    );
    sink.flush_and_report();
    write_json(
        &args.out_dir,
        "megascale",
        &(flows, r.total_ops, r.peak_iops()),
    );

    let elapsed = t0.elapsed().as_secs();
    if elapsed > budget_secs {
        eprintln!("megascale: FAILED — {elapsed}s exceeds the {budget_secs}s wall-clock budget");
        std::process::exit(1);
    }
    println!("megascale: ok — {elapsed}s within the {budget_secs}s budget");
}
