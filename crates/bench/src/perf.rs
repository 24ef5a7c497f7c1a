//! The microbenchmark protocol behind the `perf` bin: fixed work, measured
//! wall time, warmup, median-of-K.
//!
//! Each benchmark is a closure performing a *fixed* amount of work (the
//! same op count every call — never "run for T seconds", which would make
//! the work depend on machine speed) and returning how many operations it
//! performed. The protocol runs it `warmup` times unmeasured (to populate
//! caches and the branch predictor), then `rounds` measured times, and
//! reports the **median** round — robust against one-off scheduling noise
//! in a way a mean is not. Entries serialize to the `BENCH.json` format
//! (`{bench, iters, ns_per_op, ops_per_sec}`) that `xtask bench-diff`
//! compares against the checked-in baseline.

use std::time::Instant;

use lunule_util::{Json, ToJson};

/// Measurement protocol: how many unmeasured warmup rounds and how many
/// measured rounds (the median of which is reported).
#[derive(Clone, Copy, Debug)]
pub struct Protocol {
    /// Unmeasured warmup calls before timing starts.
    pub warmup: usize,
    /// Measured calls; the median per-op time is reported.
    pub rounds: usize,
}

impl Protocol {
    /// CI-friendly protocol: 1 warmup round, median of 3.
    pub fn quick() -> Self {
        Protocol {
            warmup: 1,
            rounds: 3,
        }
    }

    /// Full protocol for local perf work: 2 warmup rounds, median of 5.
    pub fn full() -> Self {
        Protocol {
            warmup: 2,
            rounds: 5,
        }
    }
}

impl Default for Protocol {
    fn default() -> Self {
        Protocol::full()
    }
}

/// One `BENCH.json` entry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchResult {
    /// Benchmark name (stable across PRs — the diff key).
    pub bench: String,
    /// Operations performed per measured round (fixed work).
    pub iters: u64,
    /// Median wall time per operation, nanoseconds.
    pub ns_per_op: f64,
    /// Throughput implied by the median round.
    pub ops_per_sec: f64,
}

lunule_util::impl_json_struct!(BenchResult {
    bench,
    iters,
    ns_per_op,
    ops_per_sec,
});

/// Runs `work` under `protocol` and reports the median round.
///
/// `work` performs a fixed basket of operations and returns the op count
/// (which must not vary between calls; the protocol asserts it doesn't).
pub fn run_bench<F>(name: &str, protocol: Protocol, mut work: F) -> BenchResult
where
    F: FnMut() -> u64,
{
    for _ in 0..protocol.warmup {
        let _ = work();
    }
    let rounds = protocol.rounds.max(1);
    let mut per_op: Vec<f64> = Vec::with_capacity(rounds);
    let mut iters = 0u64;
    for _ in 0..rounds {
        let start = Instant::now();
        let ops = work();
        let elapsed = start.elapsed();
        assert!(ops > 0, "benchmark {name} performed no work");
        assert!(
            iters == 0 || iters == ops,
            "benchmark {name} must do fixed work (got {ops} after {iters})"
        );
        iters = ops;
        per_op.push(elapsed.as_nanos() as f64 / ops as f64);
    }
    let ns_per_op = median(&mut per_op);
    BenchResult {
        bench: name.to_string(),
        iters,
        ns_per_op,
        ops_per_sec: if ns_per_op > 0.0 {
            1e9 / ns_per_op
        } else {
            f64::INFINITY
        },
    }
}

/// Median of a scratch slice (sorted in place; mean-of-two for even sizes).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Serializes a result set as the top-level `BENCH.json` array.
pub fn to_bench_json(results: &[BenchResult]) -> Json {
    Json::Arr(results.iter().map(ToJson::to_json).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lunule_util::FromJson;

    #[test]
    fn protocol_reports_fixed_work_and_sane_rates() {
        let mut calls = 0u32;
        let r = run_bench("spin", Protocol::quick(), || {
            calls += 1;
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
            10_000
        });
        // 1 warmup + 3 measured.
        assert_eq!(calls, 4);
        assert_eq!(r.iters, 10_000);
        assert!(r.ns_per_op > 0.0);
        assert!(r.ops_per_sec > 0.0);
        let roundtrip = r.ns_per_op * r.ops_per_sec;
        assert!((roundtrip - 1e9).abs() < 1.0, "{roundtrip}");
    }

    #[test]
    #[should_panic]
    fn variable_work_is_rejected() {
        let mut n = 0u64;
        run_bench("bad", Protocol::quick(), || {
            n += 1;
            n
        });
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        assert_eq!(median(&mut [5.0, 1.0, 100.0]), 5.0);
        assert_eq!(median(&mut [2.0, 4.0]), 3.0);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn bench_json_roundtrips() {
        let results = vec![BenchResult {
            bench: "sim_tick_loop".into(),
            iters: 1234,
            ns_per_op: 56.7,
            ops_per_sec: 1e9 / 56.7,
        }];
        let json = to_bench_json(&results).to_string_pretty();
        let parsed = Json::parse(&json).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 1);
        let back = BenchResult::from_json(&arr[0]).unwrap();
        assert_eq!(back.bench, "sim_tick_loop");
        assert_eq!(back.iters, 1234);
    }
}
