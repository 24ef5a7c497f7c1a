//! The CI bench-regression gate: compares a fresh `BENCH.json` (from
//! `cargo run --release -p lunule-bench --bin perf`) against a checked-in
//! baseline and fails when any entry's `ns_per_op` regressed beyond its
//! threshold.
//!
//! The default threshold is 15%: the shared-runner noise floor for this
//! basket sits well under that once the build is cached, and a tighter
//! default is what makes the perf wins of the hot-path work durable.
//! Benchmarks that are legitimately noisier (end-to-end cells like
//! `sim_tick_loop`) carry their own bound via an optional
//! `max_regress_pct` field on their baseline entry, so one noisy cell no
//! longer inflates the global gate.
//!
//! Set mismatches between the two files are reported as an explicit delta
//! listing (benches only in the baseline, benches only in the current
//! run) rather than a generic failure: a missing bench still fails the
//! gate — a silently dropped benchmark must not shrink it — while extra
//! benches pass and start gating once the baseline is refreshed.

use std::fs;
use std::process::ExitCode;

use lunule_util::Json;

/// One entry parsed from a `BENCH.json` array: the benchmark name and its
/// wall-time cost per operation. The other emitted fields (`iters`,
/// `ops_per_sec`) are derived or informational and do not gate CI.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Benchmark name (`authority_resolve`, …).
    pub bench: String,
    /// Measured nanoseconds per operation.
    pub ns_per_op: f64,
    /// Optional per-bench regression bound in percent (baseline side
    /// only): `40.0` allows up to +40% before failing, overriding the
    /// gate's default threshold for this one benchmark.
    pub max_regress_pct: Option<f64>,
}

/// Outcome of comparing one baseline benchmark against the current run.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within threshold; carries `current / baseline` for the report.
    Ok(f64),
    /// `current / baseline` exceeded the allowed ratio; carries the ratio
    /// and the threshold (as a fraction) that applied to this bench.
    Regressed(f64, f64),
    /// In the baseline but absent from the current run — a silently
    /// dropped benchmark must fail the gate, not shrink it.
    Missing,
}

/// Compares `current` against `baseline`: one verdict per baseline entry,
/// in baseline order. A baseline entry with `max_regress_pct` is judged
/// against its own bound instead of `default_threshold`. Entries that
/// exist only in `current` are newly added benchmarks and always pass
/// (they gate once the baseline is refreshed).
pub fn compare_benches(
    baseline: &[BenchEntry],
    current: &[BenchEntry],
    default_threshold: f64,
) -> Vec<(String, Verdict)> {
    baseline
        .iter()
        .map(|b| {
            let threshold = b
                .max_regress_pct
                .map(|pct| pct / 100.0)
                .unwrap_or(default_threshold);
            let verdict = match current.iter().find(|c| c.bench == b.bench) {
                None => Verdict::Missing,
                Some(c) => {
                    let ratio = if b.ns_per_op > 0.0 {
                        c.ns_per_op / b.ns_per_op
                    } else {
                        f64::INFINITY
                    };
                    if ratio > 1.0 + threshold {
                        Verdict::Regressed(ratio, threshold)
                    } else {
                        Verdict::Ok(ratio)
                    }
                }
            };
            (b.bench.clone(), verdict)
        })
        .collect()
}

/// The set difference between baseline and current bench names:
/// `(only_in_baseline, only_in_current)`, each in file order. Used for the
/// explicit delta listing when the two files disagree on the bench set.
pub fn bench_set_delta(
    baseline: &[BenchEntry],
    current: &[BenchEntry],
) -> (Vec<String>, Vec<String>) {
    let only_in_baseline = baseline
        .iter()
        .filter(|b| !current.iter().any(|c| c.bench == b.bench))
        .map(|b| b.bench.clone())
        .collect();
    let only_in_current = current
        .iter()
        .filter(|c| !baseline.iter().any(|b| b.bench == c.bench))
        .map(|c| c.bench.clone())
        .collect();
    (only_in_baseline, only_in_current)
}

/// Parses a `BENCH.json` document: a top-level array of objects with at
/// least a string `bench` and a numeric `ns_per_op` field, plus an
/// optional numeric `max_regress_pct` (baseline files only; ignored but
/// accepted on the current side).
pub fn parse_bench_entries(text: &str) -> Result<Vec<BenchEntry>, String> {
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    let arr = json
        .as_arr()
        .ok_or_else(|| "top-level value must be an array".to_string())?;
    let mut out = Vec::new();
    for (i, item) in arr.iter().enumerate() {
        let bench = item
            .get("bench")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("entry {i}: missing string field `bench`"))?
            .to_string();
        let ns_per_op = item
            .get("ns_per_op")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("entry {i} ({bench}): missing numeric field `ns_per_op`"))?;
        let max_regress_pct = match item.get("max_regress_pct") {
            None => None,
            Some(v) => {
                let pct = v.as_f64().ok_or_else(|| {
                    format!("entry {i} ({bench}): `max_regress_pct` must be a number")
                })?;
                if pct <= 0.0 {
                    return Err(format!(
                        "entry {i} ({bench}): `max_regress_pct` must be positive, got {pct}"
                    ));
                }
                Some(pct)
            }
        };
        out.push(BenchEntry {
            bench,
            ns_per_op,
            max_regress_pct,
        });
    }
    Ok(out)
}

/// Implements `bench-diff <baseline.json> <current.json> [--threshold F]`.
pub fn bench_diff_command(args: &[String]) -> ExitCode {
    let mut paths: Vec<&String> = Vec::new();
    let mut threshold = 0.15_f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threshold" {
            match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t > 0.0 => threshold = t,
                _ => {
                    eprintln!("bench-diff: --threshold needs a positive number");
                    return ExitCode::from(2);
                }
            }
        } else {
            paths.push(a);
        }
    }
    let (baseline_path, current_path) = match paths.as_slice() {
        [b, c] => (b.as_str(), c.as_str()),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- bench-diff <baseline.json> <current.json> [--threshold 0.15]"
            );
            return ExitCode::from(2);
        }
    };
    let load = |path: &str| -> Result<Vec<BenchEntry>, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_bench_entries(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-diff: {e}");
            return ExitCode::from(2);
        }
    };

    let verdicts = compare_benches(&baseline, &current, threshold);
    println!(
        "{:<20} {:>12} {:>12} {:>7}  verdict (default threshold +{:.0}%)",
        "bench",
        "base ns/op",
        "cur ns/op",
        "ratio",
        threshold * 100.0
    );
    let ns_of = |entries: &[BenchEntry], name: &str| {
        entries
            .iter()
            .find(|e| e.bench == name)
            .map(|e| e.ns_per_op)
    };
    let mut regressions = 0usize;
    for (name, verdict) in &verdicts {
        let base = ns_of(&baseline, name).unwrap_or(f64::NAN);
        match verdict {
            Verdict::Ok(ratio) => {
                let cur = ns_of(&current, name).unwrap_or(f64::NAN);
                println!("{name:<20} {base:>12.1} {cur:>12.1} {ratio:>6.2}x  ok");
            }
            Verdict::Regressed(ratio, bound) => {
                let cur = ns_of(&current, name).unwrap_or(f64::NAN);
                println!(
                    "{name:<20} {base:>12.1} {cur:>12.1} {ratio:>6.2}x  REGRESSED (bound +{:.0}%)",
                    bound * 100.0
                );
                regressions += 1;
            }
            Verdict::Missing => {
                regressions += 1;
            }
        }
    }
    for c in &current {
        if !baseline.iter().any(|b| b.bench == c.bench) {
            println!(
                "{:<20} {:>12} {:>12.1} {:>7}  new (no baseline, passes)",
                c.bench, "-", c.ns_per_op, "-"
            );
        }
    }
    let (only_base, only_cur) = bench_set_delta(&baseline, &current);
    if !only_base.is_empty() || !only_cur.is_empty() {
        println!("bench-diff: bench sets differ between the two files:");
        if !only_base.is_empty() {
            println!(
                "  only in baseline (FAIL — dropped from the current run): {}",
                only_base.join(", ")
            );
        }
        if !only_cur.is_empty() {
            println!(
                "  only in current (pass — gate after a baseline refresh): {}",
                only_cur.join(", ")
            );
        }
    }
    if regressions > 0 {
        println!("bench-diff: {regressions} regression(s)");
        ExitCode::from(1)
    } else {
        println!("bench-diff: clean ({} benchmark(s))", verdicts.len());
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, ns: f64) -> BenchEntry {
        BenchEntry {
            bench: name.to_string(),
            ns_per_op: ns,
            max_regress_pct: None,
        }
    }

    #[test]
    fn bench_json_round_trip_parses() {
        let text = "[\n  {\"bench\": \"a\", \"iters\": 10, \"ns_per_op\": 100.0, \"ops_per_sec\": 1.0e7},\n  {\"bench\": \"b\", \"iters\": 5, \"ns_per_op\": 42.5, \"ops_per_sec\": 2.35e7}\n]\n";
        let entries = parse_bench_entries(text).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].bench, "a");
        assert!((entries[1].ns_per_op - 42.5).abs() < 1e-9);
        assert_eq!(entries[0].max_regress_pct, None);
        assert!(parse_bench_entries("{\"not\": \"an array\"}").is_err());
        assert!(parse_bench_entries("[{\"iters\": 3}]").is_err());
    }

    #[test]
    fn max_regress_pct_parses_and_validates() {
        let text = "[{\"bench\": \"noisy\", \"ns_per_op\": 100.0, \"max_regress_pct\": 40}]";
        let entries = parse_bench_entries(text).unwrap();
        assert_eq!(entries[0].max_regress_pct, Some(40.0));
        let bad = "[{\"bench\": \"x\", \"ns_per_op\": 1.0, \"max_regress_pct\": -5}]";
        assert!(parse_bench_entries(bad).is_err());
        let not_num = "[{\"bench\": \"x\", \"ns_per_op\": 1.0, \"max_regress_pct\": \"40\"}]";
        assert!(parse_bench_entries(not_num).is_err());
    }

    #[test]
    fn bench_compare_verdicts() {
        let baseline = vec![
            entry("tick", 100.0),
            entry("frag", 10.0),
            entry("gone", 5.0),
        ];
        let current = vec![
            entry("tick", 114.0),    // +14% — inside the 15% default
            entry("frag", 11.6),     // +16% — regression
            entry("brand_new", 1.0), // no baseline — passes
        ];
        let verdicts = compare_benches(&baseline, &current, 0.15);
        assert_eq!(verdicts.len(), 3);
        assert!(matches!(verdicts[0].1, Verdict::Ok(_)));
        assert!(matches!(verdicts[1].1, Verdict::Regressed(_, _)));
        assert_eq!(verdicts[2].1, Verdict::Missing);
        // Exactly at the threshold passes; strictly beyond fails.
        let at = compare_benches(&[entry("x", 100.0)], &[entry("x", 115.0)], 0.15);
        assert!(matches!(at[0].1, Verdict::Ok(_)));
        let over = compare_benches(&[entry("x", 100.0)], &[entry("x", 115.1)], 0.15);
        assert!(matches!(over[0].1, Verdict::Regressed(_, _)));
    }

    #[test]
    fn per_bench_override_loosens_only_its_own_bound() {
        let noisy = BenchEntry {
            bench: "noisy".to_string(),
            ns_per_op: 100.0,
            max_regress_pct: Some(40.0),
        };
        let baseline = vec![noisy, entry("stable", 100.0)];
        // +30% on both: the overridden bench passes, the default-gated
        // bench fails.
        let current = vec![entry("noisy", 130.0), entry("stable", 130.0)];
        let verdicts = compare_benches(&baseline, &current, 0.15);
        assert!(matches!(verdicts[0].1, Verdict::Ok(_)));
        match verdicts[1].1 {
            Verdict::Regressed(ratio, bound) => {
                assert!((ratio - 1.30).abs() < 1e-9);
                assert!((bound - 0.15).abs() < 1e-9);
            }
            ref v => panic!("expected regression, got {v:?}"),
        }
        // Beyond even the override fails with the override bound reported.
        let current = vec![entry("noisy", 141.0), entry("stable", 100.0)];
        let verdicts = compare_benches(&baseline, &current, 0.15);
        match verdicts[0].1 {
            Verdict::Regressed(_, bound) => assert!((bound - 0.40).abs() < 1e-9),
            ref v => panic!("expected regression, got {v:?}"),
        }
    }

    #[test]
    fn set_delta_lists_both_directions() {
        let baseline = vec![entry("a", 1.0), entry("b", 2.0)];
        let current = vec![entry("b", 2.0), entry("c", 3.0)];
        let (only_base, only_cur) = bench_set_delta(&baseline, &current);
        assert_eq!(only_base, vec!["a".to_string()]);
        assert_eq!(only_cur, vec!["c".to_string()]);
        let (e1, e2) = bench_set_delta(&baseline, &baseline);
        assert!(e1.is_empty() && e2.is_empty());
    }
}
