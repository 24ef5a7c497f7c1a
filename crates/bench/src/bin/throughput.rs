//! Tick-throughput frontier: ticks/sec vs cluster size at three client
//! population scales, emitted as `THROUGHPUT.json` in the `BENCH.json`
//! entry format so `xtask bench-diff` doubles as the floor check.
//!
//! Each cell builds a megascale-style cohort run (reusing `ScaleSpec` /
//! `build_sim`, so populations match the scale experiments) and measures
//! the wall time of the whole tick loop under the warmup + median-of-K
//! protocol. `ns_per_op` is nanoseconds **per tick** and `ops_per_sec` is
//! the ticks/sec the entry name advertises; a regression verdict from
//! `bench-diff throughput-baseline.json THROUGHPUT.json` therefore means
//! "the simulator's tick rate fell through its floor at this cell".
//!
//! End-to-end cells are noisier than the microbench basket, so the
//! checked-in baseline carries per-bench `max_regress_pct` overrides
//! instead of leaning on the default +15% gate.
//!
//! `--quick` selects the CI grid (smaller populations, shorter horizon);
//! `--out` names either a directory (gets `THROUGHPUT.json` inside) or a
//! `.json` file path, mirroring the `perf` bin.

use lunule_bench::perf::to_bench_json;
use lunule_bench::{build_sim, run_bench, BenchResult, CommonArgs, Protocol, ScaleSpec};
use lunule_telemetry::Telemetry;

/// One grid axis point: a total client population and a label for the
/// entry name (`10k`, `100k`, `1m`).
struct Population {
    label: &'static str,
    clients: u64,
}

/// Cluster sizes swept at every population scale.
const CLUSTER_SIZES: [usize; 3] = [8, 32, 128];

/// The three population scales. Quick mode drops each by 10× so the CI
/// cell stays inside the bench job's wall-clock budget; entry names keep
/// the same labels in both modes, so quick and full runs gate against
/// their own baselines (refreshed with matching flags).
fn populations(quick: bool) -> [Population; 3] {
    if quick {
        [
            Population {
                label: "1k",
                clients: 1_000,
            },
            Population {
                label: "10k",
                clients: 10_000,
            },
            Population {
                label: "100k",
                clients: 100_000,
            },
        ]
    } else {
        [
            Population {
                label: "10k",
                clients: 10_000,
            },
            Population {
                label: "100k",
                clients: 100_000,
            },
            Population {
                label: "1m",
                clients: 1_000_000,
            },
        ]
    }
}

/// The run shape of one grid cell. The namespace is kept fixed across
/// cluster sizes at a given population so the sweep isolates the cost of
/// rank fan-out, not of namespace construction.
fn cell_spec(clients: u64, n_mds: usize, quick: bool, seed: u64) -> ScaleSpec {
    ScaleSpec {
        clients,
        groups: 64,
        dirs: if quick { 256 } else { 1_024 },
        files_per_dir: if quick { 32 } else { 256 },
        n_mds,
        duration_secs: if quick { 4 } else { 16 },
        epoch_secs: if quick { 2 } else { 4 },
        seed,
    }
}

fn main() {
    let args = CommonArgs::parse();
    let protocol = if args.quick {
        Protocol::quick()
    } else {
        Protocol::full()
    };
    let mut results: Vec<BenchResult> = Vec::new();
    for pop in &populations(args.quick) {
        for &n_mds in &CLUSTER_SIZES {
            let spec = cell_spec(pop.clients, n_mds, args.quick, args.seed);
            let name = format!("tp_c{}_m{n_mds}", pop.label);
            let ticks = spec.duration_secs;
            let r = run_bench(&name, protocol, || {
                let sim = build_sim(&spec, args.jobs, Telemetry::disabled());
                let res = sim.run();
                assert!(res.total_ops > 0, "throughput cell served no ops");
                ticks
            });
            println!(
                "{:<14} {:>9} clients {:>4} ranks {:>10.0} ticks/sec",
                r.bench, pop.clients, n_mds, r.ops_per_sec
            );
            results.push(r);
        }
    }

    if let Some(out) = &args.out_dir {
        let path = if out.ends_with(".json") {
            std::path::PathBuf::from(out)
        } else {
            if let Err(e) = std::fs::create_dir_all(out) {
                eprintln!("throughput: cannot create {out}: {e}");
                return;
            }
            std::path::Path::new(out).join("THROUGHPUT.json")
        };
        let json = to_bench_json(&results).to_string_pretty();
        match std::fs::write(&path, json + "\n") {
            Ok(()) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("throughput: cannot write {}: {e}", path.display()),
        }
    }
}
