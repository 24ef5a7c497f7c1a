//! The sanctioned worker pool: scoped, std-only data parallelism with
//! deterministic result ordering.
//!
//! Every parallel driver in the workspace — the experiment grids, the
//! `run_all` process fan-out, the chaos-soak schedule battery — goes
//! through [`WorkerPool`]. Work items carry their submission index, workers
//! pull items off a shared atomic cursor (so load balances dynamically),
//! and results are re-assembled in submission order before being returned.
//! Because each item's computation is single-threaded and deterministic,
//! the pool's output is byte-for-byte independent of worker count and OS
//! scheduling: `--jobs 1` and `--jobs 32` produce identical results.
//!
//! This module is the only place in the workspace allowed to touch
//! `std::thread` — `clippy.toml` bans `thread::spawn` / `thread::scope`
//! everywhere else, so ad-hoc threading cannot silently break run
//! determinism.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Environment variable overriding the default worker count (useful for
/// pinning CI parallelism without threading a flag everywhere).
pub const JOBS_ENV: &str = "LUNULE_JOBS";

/// The default worker count: `LUNULE_JOBS` when set to a positive integer,
/// otherwise [`std::thread::available_parallelism`], otherwise 1.
#[expect(
    clippy::disallowed_methods,
    reason = "the LUNULE_JOBS override changes only how many workers run, never what they compute"
)]
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A scoped worker pool of a fixed width.
///
/// The pool owns no threads between calls: each [`WorkerPool::map`] /
/// [`WorkerPool::map_indices`] spawns `jobs` scoped workers, joins them
/// all, and returns results in submission order. A panic inside any work
/// item propagates to the caller after all workers have been joined (the
/// guarantee of [`std::thread::scope`]), so no result vector is ever
/// observed half-filled.
#[derive(Clone, Copy, Debug)]
pub struct WorkerPool {
    jobs: usize,
}

impl WorkerPool {
    /// A pool of `jobs` workers. `0` means "auto": [`default_jobs`].
    pub fn new(jobs: usize) -> Self {
        WorkerPool {
            jobs: if jobs == 0 { default_jobs() } else { jobs },
        }
    }

    /// A pool sized by [`default_jobs`].
    pub fn auto() -> Self {
        WorkerPool::new(0)
    }

    /// The resolved worker count (always >= 1).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every index in `0..n` across the pool's workers and
    /// returns the results ordered by index.
    ///
    /// `f(i)` must not depend on which worker runs it or in what order —
    /// the whole point of the pool is that it cannot observe either. Items
    /// are handed out through an atomic cursor, so a slow item does not
    /// hold up the others beyond the final join.
    #[expect(
        clippy::disallowed_methods,
        reason = "the sanctioned worker pool is the one place allowed to touch std::thread"
    )]
    pub fn map_indices<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let workers = self.jobs.min(n);
        if workers == 1 {
            return (0..n).map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let merged: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    merged
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .append(&mut local);
                });
            }
        });
        let mut indexed = merged.into_inner().unwrap_or_else(PoisonError::into_inner);
        indexed.sort_unstable_by_key(|(i, _)| *i);
        debug_assert_eq!(indexed.len(), n, "every submitted item must report");
        indexed.into_iter().map(|(_, t)| t).collect()
    }

    /// Applies `f` to every item of `items` (with its index) and returns
    /// the results in item order. See [`WorkerPool::map_indices`].
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.map_indices(items.len(), |i| f(i, &items[i]))
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        // Items deliberately take wildly different amounts of work so the
        // completion order differs from the submission order.
        let pool = WorkerPool::new(4);
        let out = pool.map_indices(64, |i| {
            let spin = (64 - i) * 2_000;
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(k as u64);
            }
            (i, acc)
        });
        assert_eq!(out.len(), 64);
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }

    #[test]
    fn output_is_independent_of_worker_count() {
        let work = |i: usize| -> u64 { (i as u64).wrapping_mul(0x9E37_79B9) ^ 0xABCD };
        let solo = WorkerPool::new(1).map_indices(100, work);
        for jobs in [2, 3, 4, 8] {
            assert_eq!(WorkerPool::new(jobs).map_indices(100, work), solo);
        }
    }

    #[test]
    fn zero_items_and_single_worker_edge_cases() {
        let pool = WorkerPool::new(4);
        let empty: Vec<u32> = pool.map_indices(0, |_| 1);
        assert!(empty.is_empty());
        let one = WorkerPool::new(1);
        assert_eq!(one.jobs(), 1);
        assert_eq!(one.map_indices(3, |i| i * 10), vec![0, 10, 20]);
        // More workers than items clamps to the item count.
        assert_eq!(pool.map_indices(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn map_passes_items_with_indices() {
        let items = ["a", "bb", "ccc"];
        let out = WorkerPool::new(2).map(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:bb", "2:ccc"]);
    }

    #[test]
    fn panic_in_worker_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            WorkerPool::new(4).map_indices(16, |i| {
                if i == 9 {
                    panic!("worker 9 exploded");
                }
                i
            })
        });
        assert!(result.is_err(), "a worker panic must reach the caller");
    }

    #[test]
    fn zero_jobs_resolves_to_auto() {
        assert!(WorkerPool::new(0).jobs() >= 1);
        assert!(WorkerPool::auto().jobs() >= 1);
        assert!(default_jobs() >= 1);
    }
}
