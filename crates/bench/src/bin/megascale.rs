//! Determinism-at-scale smoke: a million-client, 10^7-inode run on 128
//! simulated ranks, executed twice — `--jobs 1` and `--jobs N` — with the
//! two telemetry journals required to be byte-identical. This is the CI
//! gate for the cohort engine's sharded fan-out: the worker count may only
//! change wall time, never a single journal byte.
//!
//! The run also enforces a wall-clock budget (the point of cohorts is that
//! a million clients cost what eight flows cost), overridable via
//! `MEGASCALE_BUDGET_SECS` for slow runners.
//!
//! Usage: `megascale [--quick] [--jobs N] [--telemetry-out <dir>]`

use lunule_bench::{write_json, CommonArgs, ScaleSpec, TelemetrySink};
use lunule_telemetry::{events_jsonl, Telemetry};
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
    let jobs_n = if args.jobs == 0 { 4 } else { args.jobs.max(2) };
    println!(
        "# megascale — {} clients, {} inodes, {} ranks, {} ticks, jobs 1 vs {}",
        spec.clients,
        spec.n_inodes(),
        spec.n_mds,
        spec.duration_secs,
        jobs_n
    );

    let t0 = Instant::now();
    let mut sink = TelemetrySink::from_args(&args);
    let mut journals = Vec::new();
    let mut dump = Vec::new();
    for jobs in [1usize, jobs_n] {
        let tel = if sink.is_enabled() {
            sink.handle(&format!("megascale-jobs{jobs}"))
        } else {
            Telemetry::enabled()
        };
        let build_start = Instant::now();
        let sim = lunule_bench::build_sim(&spec, jobs, tel.clone());
        let built = build_start.elapsed();
        let flows = sim.n_flows();
        let run_start = Instant::now();
        let r = sim.run();
        let ran = run_start.elapsed();
        println!(
            "jobs={jobs}: {} clients as {flows} flow(s); {} ops, peak {:.0} IOPS; \
             build {:.1}s, run {:.1}s",
            spec.clients,
            r.total_ops,
            r.peak_iops(),
            built.as_secs_f64(),
            ran.as_secs_f64()
        );
        journals.push(events_jsonl(&tel.snapshot().expect("telemetry enabled")));
        dump.push((jobs, flows, r.total_ops, r.peak_iops()));
    }

    if journals[0] != journals[1] {
        eprintln!(
            "megascale: FAILED — jobs=1 and jobs={jobs_n} journals differ \
             ({} vs {} bytes)",
            journals[0].len(),
            journals[1].len()
        );
        std::process::exit(1);
    }
    println!(
        "journals byte-identical across worker counts ({} bytes each)",
        journals[0].len()
    );
    sink.flush_and_report();
    write_json(&args.out_dir, "megascale", &dump);

    let elapsed = t0.elapsed().as_secs();
    if elapsed > budget_secs {
        eprintln!("megascale: FAILED — {elapsed}s exceeds the {budget_secs}s wall-clock budget");
        std::process::exit(1);
    }
    println!("megascale: ok — {elapsed}s within the {budget_secs}s budget");
}
