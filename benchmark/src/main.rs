//! The repository benchmark: end-to-end and per-layer metrics of the
//! Lunule simulator on four pinned workloads, measured from outside by
//! timing calls into the crates' public functions.
//!
//! ```text
//! lunule-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! The process that parses this command line measures nothing itself. It
//! runs each pass in a child process of its own (the same executable with
//! an internal `--child <mode>`), with `LUNULE_JOBS` pinned, so each pass
//! has its own peak RSS and worker count. It then checks the children's
//! output digests and prints one JSON result line. See `README.md` for the
//! workloads, the metrics and their bounds.

mod child;
mod cli;
mod measure;
mod probe;
mod stats;
mod timing;
mod trace;
mod workloads;

use child::Report;
use cli::{Args, Mode, Parsed, USAGE};
use lunule_util::Json;
use measure::Checks;
use std::num::NonZeroUsize;
use std::process::{Command, ExitCode, Stdio};

/// End-to-end metrics, from the untraced pass: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ticks_per_s", "1/s"),
    ("sim_ops_per_s", "1/s"),
    ("tick_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_mean_if", "ratio"),
    ("sim_mean_iops", "1/s"),
];

/// Per-layer metrics, from the traced pass: name and unit.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("core.record_access_ns", "ns"),
    ("core.record_access_items", "count"),
    ("core.on_epoch_ms_p50", "ms"),
    ("core.on_epoch_share", "ratio"),
    ("core.plan_subtrees", "count"),
    ("workloads.next_op_ns", "ns"),
    ("workloads.next_op_calls", "count"),
    ("workloads.build_ms", "ms"),
    ("sim.plain_tick_us", "us"),
    ("sim.epoch_tick_ms", "ms"),
    ("sim.tick_p99_us", "us"),
    ("sim.self_share", "ratio"),
    ("sim.ops_per_tick", "count"),
    ("sim.flows_max", "count"),
    ("sim.migrations_started", "count"),
    ("sim.migrations_committed", "count"),
    ("sim.migrated_inodes", "count"),
    ("namespace.inodes_end", "count"),
    ("namespace.authority_walk_ns", "ns"),
    ("namespace.authcache_ns", "ns"),
    ("par.jobs2_over_jobs1", "ratio"),
    ("telemetry.on_over_off", "ratio"),
    ("telemetry.events_per_tick", "count"),
    ("telemetry.journal_bytes_per_tick", "B"),
    ("daemon.publish_us", "us"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.bytes", "B"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("faults.injected", "count"),
    ("trace.overhead", "ratio"),
    ("host.probe_us", "us"),
];

/// Output digests pinned per workload and seed.
const EXPECTED: &str = include_str!("../expected.json");

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&raw) {
        Ok(Parsed::Run(args)) => args,
        Ok(Parsed::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("lunule-benchmark: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child.is_some() {
        return match child::run(&args) {
            Ok(report) => {
                println!("{}", report.to_line());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("lunule-benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match measure_all(&args) {
        Ok((checks, metrics)) => {
            println!("{}", result_line(checks, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            // A pass that crashed measured nothing: report it as a failed
            // check and exit non-zero.
            eprintln!("lunule-benchmark: {e}");
            let checks = Checks {
                attempted: 1,
                failed: 1,
            };
            println!("{}", result_line(checks, &[]));
            ExitCode::FAILURE
        }
    }
}

/// One metric of the result line.
type Metric = (&'static str, &'static str, f64);

/// Runs the child passes `args` asks for and combines their reports.
fn measure_all(args: &Args) -> Result<(Checks, Vec<Metric>), String> {
    let jobs = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(2);
    let pinned = pinned_digest(args)?;
    let mut checks = Checks::default();
    let check_pinned = |checks: &mut Checks, digests: &[u64]| match pinned {
        Some(want) => {
            for got in digests {
                checks.check(*got == want, || {
                    format!("output digest {got:016x}, pinned {want:016x}")
                });
            }
        }
        None => eprintln!(
            "lunule-benchmark: digest unchecked: seed {} of {} is not pinned",
            args.seed,
            args.workload.name()
        ),
    };
    if !args.trace {
        let r = spawn(args, Mode::Measure, jobs)?;
        checks.absorb(r.checks);
        check_pinned(&mut checks, &r.digests);
        let metrics = END_TO_END.map(|(name, unit)| (name, unit, r.get(name)));
        return Ok((checks, validate(&mut checks, metrics.to_vec())));
    }
    // Baseline first, then the traced pass, then the same pass at one
    // worker and with telemetry flipped; each pass's digest must match.
    let base = spawn(args, Mode::Single, jobs)?;
    let traced = spawn(args, Mode::Traced, jobs)?;
    let serial = spawn(args, Mode::Single, 1)?;
    let flipped = spawn(args, Mode::Flip, jobs)?;
    for (label, r) in [
        ("traced", &traced),
        ("jobs-1", &serial),
        ("telemetry-flipped", &flipped),
    ] {
        checks.absorb(r.checks);
        checks.check(r.digests == base.digests, || {
            format!("{label} pass digest differs from the baseline pass")
        });
    }
    checks.absorb(base.checks);
    check_pinned(&mut checks, &base.digests);
    let (on, off) = if base.get("telemetry") > 0.0 {
        (&base, &flipped)
    } else {
        (&flipped, &base)
    };
    // Loops of different children ran at different moments, so their
    // ratios use probe-calibrated loop time.
    let loop_s = |r: &Report| r.get("loop_ref_s");
    let metrics = PER_LAYER.map(|(name, unit)| {
        let value = match name {
            "par.jobs2_over_jobs1" => loop_s(&base) / loop_s(&serial),
            "telemetry.on_over_off" => loop_s(on) / loop_s(off),
            "telemetry.events_per_tick" => on.get("events_per_tick"),
            "telemetry.journal_bytes_per_tick" => on.get("journal_bytes_per_tick"),
            "daemon.publish_us" => on.get("publish_us"),
            "trace.overhead" => loop_s(&traced) / loop_s(&base),
            "sim.tick_p99_us" | "sim.migrated_inodes" | "host.probe_us" => base.get(name),
            _ => traced.get(name),
        };
        (name, unit, value)
    });
    Ok((checks, validate(&mut checks, metrics.to_vec())))
}

/// Every reported metric needs a measured value; a missing or non-finite
/// one counts as a failed check.
fn validate(checks: &mut Checks, metrics: Vec<Metric>) -> Vec<Metric> {
    for (name, _, value) in &metrics {
        checks.check(value.is_finite(), || format!("{name} was not measured"));
    }
    metrics
}

/// The digest pinned for this workload and seed, if any (`--smoke` runs
/// are never pinned).
fn pinned_digest(args: &Args) -> Result<Option<u64>, String> {
    if args.smoke {
        return Ok(None);
    }
    let json = Json::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    let Some(entry) = json
        .get(args.workload.name())
        .and_then(|w| w.get(&args.seed.to_string()))
    else {
        return Ok(None);
    };
    entry
        .as_str()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .map(Some)
        .ok_or_else(|| "expected.json: digests are hex strings".into())
}

/// Runs one pass in a child process with `LUNULE_JOBS=jobs` and parses its
/// report (the last line it prints).
fn spawn(args: &Args, mode: Mode, jobs: usize) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode.name(), "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .env(lunule_util::par::JOBS_ENV, jobs.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning the {} pass: {e}", mode.name()))?;
    if !out.status.success() {
        return Err(format!(
            "the {} pass of {} failed ({})",
            mode.name(),
            args.workload.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("a child printed no report")?;
    Report::from_line(line)
}

/// The benchmark's result: one JSON object on one line.
fn result_line(checks: Checks, metrics: &[Metric]) -> String {
    let count = |n: u64| Json::Num(n as f64);
    Json::Obj(vec![
        ("correct".into(), Json::Bool(checks.failed == 0)),
        ("attempted".into(), count(checks.attempted)),
        ("failed".into(), count(checks.failed)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, unit, value)| {
                        let entry = Json::Obj(vec![
                            ("value".into(), Json::Num(*value)),
                            ("unit".into(), Json::Str((*unit).into())),
                        ]);
                        ((*name).to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Workload;

    /// Metric names: `[A-Za-z0-9_.-]+`, at most 64 bytes, starting with a
    /// letter or digit.
    fn is_metric_name(name: &str) -> bool {
        let bytes = name.as_bytes();
        !bytes.is_empty()
            && bytes.len() <= 64
            && bytes[0].is_ascii_alphanumeric()
            && bytes
                .iter()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn metric_name_grammar() {
        for ok in ["ticks_per_s", "core.on_epoch_ms_p50", "a-b.c_d", "9lives"] {
            assert!(is_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".lead", "has space", "slash/y", "é", &long] {
            assert!(!is_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        for (name, unit) in &all {
            assert!(is_metric_name(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{unit}"
            );
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are unique");
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let spec = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name").into())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn pinned_digests_parse() {
        let json = Json::parse(EXPECTED).expect("expected.json parses");
        for w in Workload::ALL {
            for seed in ["42", "1337"] {
                let d = json.get(w.name()).and_then(|e| e.get(seed));
                let hex = d.and_then(Json::as_str).unwrap_or("");
                assert!(
                    u64::from_str_radix(hex, 16).is_ok(),
                    "{} seed {seed}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let line = result_line(
            Checks {
                attempted: 3,
                failed: 0,
            },
            &[("setup_s", "s", 0.8127)],
        );
        let json = Json::parse(&line).expect("result line parses");
        let Json::Obj(keys) = &json else {
            panic!("not an object");
        };
        let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
        let m = json.get("metrics").and_then(|m| m.get("setup_s"));
        assert_eq!(
            m.and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(0.8127)
        );
        assert_eq!(
            m.and_then(|m| m.get("unit")).and_then(Json::as_str),
            Some("s")
        );
    }
}
