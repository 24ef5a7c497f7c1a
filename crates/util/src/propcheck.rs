//! A small seeded property-test harness.
//!
//! [`run`] executes a property closure over many deterministic random
//! cases. Each case gets its own [`DetRng`] derived from a fixed base seed,
//! so failures reproduce exactly; on panic the harness reports the failing
//! case index and seed before re-raising.

use crate::rng::DetRng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Base seed all property cases derive from. Fixed so runs are reproducible.
pub const BASE_SEED: u64 = 0x5EED_1234_ABCD_0001;

/// Derives the RNG seed for property case `case`.
pub fn case_seed(case: u64) -> u64 {
    BASE_SEED ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `property` over `cases` deterministic random cases.
///
/// The closure asserts its property with ordinary `assert!` macros; when a
/// case panics the harness prints the case index and seed (for
/// reproduction with [`DetRng::seed_from_u64`]) and re-raises the panic.
#[expect(
    clippy::print_stderr,
    reason = "the failing seed goes straight to stderr so it survives even when the panic message is swallowed"
)]
pub fn run<F>(cases: u64, mut property: F)
where
    F: FnMut(&mut DetRng),
{
    for case in 0..cases {
        let seed = case_seed(case);
        let mut rng = DetRng::seed_from_u64(seed);
        let result = catch_unwind(AssertUnwindSafe(|| (property)(&mut rng)));
        if let Err(payload) = result {
            eprintln!("propcheck: case {case}/{cases} failed (seed {seed:#018x})");
            resume_unwind(payload);
        }
    }
}

/// Runs `property` over `cases` deterministic random cases on a worker
/// pool.
///
/// Each case derives its RNG from [`case_seed`], so cases are mutually
/// independent and the parallel run checks exactly the same cases as
/// [`run`] would — only wall time changes. When cases fail, the harness
/// reports (and re-raises) the **lowest** failing case index, so the
/// reported failure does not depend on worker count or scheduling.
#[expect(
    clippy::print_stderr,
    reason = "the failing seed goes straight to stderr so it survives even when the panic message is swallowed"
)]
pub fn run_par<F>(cases: u64, jobs: usize, property: F)
where
    F: Fn(&mut DetRng) + Sync,
{
    let pool = crate::par::WorkerPool::new(jobs);
    let n = usize::try_from(cases).unwrap_or(usize::MAX);
    let outcomes = pool.map_indices(n, |i| {
        let case = crate::convert::usize_to_u64(i);
        let seed = case_seed(case);
        let mut rng = DetRng::seed_from_u64(seed);
        catch_unwind(AssertUnwindSafe(|| (property)(&mut rng))).err()
    });
    for (case, outcome) in outcomes.into_iter().enumerate() {
        if let Some(payload) = outcome {
            let seed = case_seed(crate::convert::usize_to_u64(case));
            eprintln!("propcheck: case {case}/{cases} failed (seed {seed:#018x})");
            resume_unwind(payload);
        }
    }
}

/// Samples a vector of `f64` values: length uniform in `len`, each element
/// uniform in `[lo, hi)`. A common shape for load-vector properties.
pub fn vec_f64(rng: &mut DetRng, len: std::ops::Range<usize>, lo: f64, hi: f64) -> Vec<f64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_f64_in(lo, hi)).collect()
}

/// Samples a vector of `usize` values: length uniform in `len`, each
/// element uniform in `each`.
pub fn vec_usize(
    rng: &mut DetRng,
    len: std::ops::Range<usize>,
    each: std::ops::Range<usize>,
) -> Vec<usize> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(each.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_case_deterministically() {
        let mut samples = Vec::new();
        run(16, |rng| samples.push(rng.next_u64()));
        let mut again = Vec::new();
        run(16, |rng| again.push(rng.next_u64()));
        assert_eq!(samples, again);
        assert_eq!(samples.len(), 16);
        // Distinct cases see distinct streams.
        assert_ne!(samples[0], samples[1]);
    }

    #[test]
    fn failures_propagate() {
        let result = catch_unwind(|| {
            run(8, |rng| {
                assert!(rng.gen_f64() < 2.0); // always passes
                assert!(rng.gen_f64() >= 0.0);
            });
        });
        assert!(result.is_ok());
        let result = catch_unwind(|| run(8, |_| panic!("boom")));
        assert!(result.is_err());
    }

    #[test]
    fn parallel_run_checks_the_same_cases() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Sum of each case's first draw is order-independent, so it must
        // match between the sequential and parallel harnesses.
        let seq = AtomicU64::new(0);
        run(32, |rng| {
            seq.fetch_add(rng.next_u64() >> 8, Ordering::Relaxed);
        });
        for jobs in [1, 4] {
            let par = AtomicU64::new(0);
            run_par(32, jobs, |rng| {
                par.fetch_add(rng.next_u64() >> 8, Ordering::Relaxed);
            });
            assert_eq!(par.into_inner(), seq.load(Ordering::Relaxed));
        }
    }

    #[test]
    fn parallel_failures_propagate() {
        let ok = catch_unwind(|| run_par(8, 4, |rng| assert!(rng.gen_f64() < 2.0)));
        assert!(ok.is_ok());
        let bad = catch_unwind(|| run_par(8, 4, |_| panic!("boom")));
        assert!(bad.is_err());
    }

    #[test]
    fn samplers_respect_ranges() {
        run(32, |rng| {
            let v = vec_f64(rng, 0..20, 1.0, 5.0);
            assert!(v.len() < 20);
            assert!(v.iter().all(|x| (1.0..5.0).contains(x)));
            let u = vec_usize(rng, 1..10, 3..9);
            assert!((1..10).contains(&u.len()));
            assert!(u.iter().all(|x| (3..9).contains(x)));
        });
    }
}
