//! The determinism contract of the parallel experiment engine: every
//! driver that fans work out over the worker pool must produce results
//! that are byte-identical to a sequential run — pool width may only
//! change wall time, never output.
//!
//! Two layers are covered here: the `single_workloads`, `mixed_workload`
//! and `fig13_scalability` binaries end-to-end at `--quick` (transcript and
//! JSON dumps compared across `--jobs 1` / `--jobs 4`), and seeded
//! full simulations with telemetry journals run through the pool at
//! several widths.

use std::process::Command;

use lunule_core::{make_balancer, BalancerKind};
use lunule_sim::{SimConfig, Simulation};
use lunule_telemetry::Telemetry;
use lunule_util::WorkerPool;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

/// Runs the experiment binary at `bin` with the given jobs width into a
/// fresh temp directory, returning its stdout and every JSON file it wrote
/// as `(name, bytes)`, sorted by name.
fn run_binary(bin: &str, jobs: usize) -> (Vec<u8>, Vec<(String, Vec<u8>)>) {
    let name = std::path::Path::new(bin)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let out_dir = std::env::temp_dir().join(format!(
        "lunule-par-det-{name}-{}-j{jobs}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&out_dir);
    let output = Command::new(bin)
        .args([
            "--quick",
            "--scale",
            "0.004",
            "--clients",
            "6",
            "--seed",
            "7",
            "--jobs",
            &jobs.to_string(),
            "--out",
        ])
        .arg(&out_dir)
        .output()
        .expect("experiment binary should launch");
    assert!(
        output.status.success(),
        "{name} --jobs {jobs} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&out_dir)
        .expect("the JSON dump directory should exist")
        .map(|entry| {
            let path = entry.expect("readable dump entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("readable dump file"))
        })
        .collect();
    files.sort();
    let _ = std::fs::remove_dir_all(&out_dir);
    (output.stdout, files)
}

/// Asserts that `bin` prints the same transcript and writes the same JSON
/// files, byte for byte, at `--jobs 1` and `--jobs 4`.
fn assert_identical_across_pool_widths(bin: &str, expected_files: usize) {
    let (stdout_seq, json_seq) = run_binary(bin, 1);
    let (stdout_par, json_par) = run_binary(bin, 4);
    assert!(
        stdout_seq == stdout_par,
        "{bin} transcript must not depend on --jobs:\n--- jobs=1 ---\n{}\n--- jobs=4 ---\n{}",
        String::from_utf8_lossy(&stdout_seq),
        String::from_utf8_lossy(&stdout_par)
    );
    assert_eq!(json_seq.len(), expected_files, "{bin} JSON files");
    for (name, bytes) in &json_seq {
        assert!(!bytes.is_empty(), "{name} is empty");
    }
    assert!(
        json_seq == json_par,
        "{bin} JSON file names, count and bytes must not depend on --jobs"
    );
}

#[test]
fn single_workloads_output_is_byte_identical_across_pool_widths() {
    // 18 paper-figure files, plus the ablation and the sweeps.
    assert_identical_across_pool_widths(env!("CARGO_BIN_EXE_single_workloads"), 20);
}

#[test]
fn mixed_workload_output_is_byte_identical_across_pool_widths() {
    assert_identical_across_pool_widths(env!("CARGO_BIN_EXE_mixed_workload"), 4);
}

#[test]
fn fig13_scalability_output_is_byte_identical_across_pool_widths() {
    assert_identical_across_pool_widths(env!("CARGO_BIN_EXE_fig13_scalability"), 2);
}

/// A compact fingerprint of one simulation run: op totals, migration
/// counters, and the telemetry journal (event-kind counts in order).
fn soak_fingerprint(seed: u64) -> String {
    const N_MDS: usize = 4;
    const DURATION: u64 = 120;
    let (ns, streams) = WorkloadSpec {
        kind: WorkloadKind::ZipfRead,
        clients: 6,
        scale: 0.004,
        seed: seed ^ 0x5EED,
    }
    .build();
    let cfg = SimConfig {
        n_mds: N_MDS,
        mds_capacity: 100.0,
        epoch_secs: 4,
        duration_secs: DURATION,
        stop_when_done: false,
        migration_bw: 25.0,
        client_rate: 30.0,
        seed,
        telemetry: Telemetry::enabled(),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(
        cfg.clone(),
        ns,
        make_balancer(BalancerKind::Lunule, cfg.mds_capacity),
        streams,
    );
    sim.run_until(DURATION);
    let tel = sim.telemetry().clone();
    let c = sim.migration_counters();
    let r = sim.finish();
    format!(
        "seed={seed} ops={} migrated={} started={} committed={} events:start={} commit={} abandon={}",
        r.total_ops,
        r.migrated_inodes(),
        c.started_jobs,
        c.completed_jobs,
        tel.count_kind("migration_start"),
        tel.count_kind("migration_commit"),
        tel.count_kind("migration_abandon"),
    )
}

#[test]
fn seeded_simulations_are_identical_at_any_pool_width() {
    const CASES: usize = 6;
    let fingerprints = |jobs: usize| -> Vec<String> {
        WorkerPool::new(jobs).map_indices(CASES, |i| soak_fingerprint(0xD0_0000 + i as u64))
    };
    let seq = fingerprints(1);
    let par4 = fingerprints(4);
    let par3 = fingerprints(3);
    assert_eq!(seq, par4, "jobs=4 must reproduce the sequential run");
    assert_eq!(seq, par3, "jobs=3 must reproduce the sequential run");
    // And the fingerprints are real (simulations actually ran).
    assert!(seq.iter().all(|f| !f.contains("ops=0 ")));
}
