//! A fixed reference kernel that measures how fast the host runs right now.
//!
//! On a shared VM the same binary and seed run 25–35% slower for minutes
//! at a time, which no in-run statistic can remove. The kernel below is
//! timed in short slices interleaved with the measured work, and host
//! times are scaled by `reference / measured` slice time, i.e. reported in
//! seconds of a host that runs one slice in [`REFERENCE_US`]. Of several
//! kernels tried (pointer chasing over 32 MiB, B-tree lookups, a pure
//! ALU chain, allocate-and-sort), allocate-and-sort tracked the
//! simulator's slow spells best: it moves with allocator, cache and
//! branch-predictor contention, which the simulator also feels, while a
//! pure ALU chain does not move at all. The kernel uses only this file and
//! `std`, so no change to the crates can change what it measures.

use crate::timing::elapsed_ns;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Slice time, microseconds, on the reference host (a 2-vCPU VM on an
/// Intel Xeon at 2.1 GHz) between ticks of a running simulation.
pub const REFERENCE_US: f64 = 270.0;

/// Loop time between two slices; one slice costs about 1% of that.
pub const EVERY: Duration = Duration::from_millis(50);

/// Accumulated probe timings.
pub struct Probe {
    state: u64,
    ns: u64,
    slices: u64,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            state: 0x9E37_79B9_7F4A_7C15,
            ns: 0,
            slices: 0,
        }
    }
}

impl Probe {
    /// Runs and times one slice: four times, fill a fresh vector with 4,096
    /// pseudo-random words and sort it. Returns the slice's nanoseconds.
    pub fn slice(&mut self) -> u64 {
        let start = Instant::now();
        for _ in 0..4 {
            let mut v: Vec<u64> = (0..4096).map(|_| self.next()).collect();
            v.sort_unstable();
            black_box(&v);
        }
        let ns = elapsed_ns(start);
        self.ns += ns;
        self.slices += 1;
        ns
    }

    /// xorshift64*: fixed here so the kernel never changes under the
    /// benchmark.
    fn next(&mut self) -> u64 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Mean slice time, microseconds; NaN before the first slice.
    pub fn mean_us(&self) -> f64 {
        if self.slices == 0 {
            return f64::NAN;
        }
        self.ns as f64 / self.slices as f64 / 1e3
    }

    /// How much slower than the reference host the host ran: multiply a
    /// host time by `1 / slowdown()` to express it in reference seconds.
    pub fn slowdown(&self) -> f64 {
        self.mean_us() / REFERENCE_US
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_accumulate() {
        let mut p = Probe::default();
        assert!(p.slowdown().is_nan());
        let a = p.slice();
        let b = p.slice();
        assert!(a > 0 && b > 0);
        assert!((p.mean_us() - (a + b) as f64 / 2e3).abs() < 1e-9);
    }

    #[test]
    fn the_kernel_is_fixed() {
        let mut p = Probe::default();
        let first: Vec<u64> = (0..3).map(|_| p.next()).collect();
        let mut q = Probe::default();
        assert_eq!(first, (0..3).map(|_| q.next()).collect::<Vec<_>>());
        assert_ne!(first[0], first[1]);
    }
}
