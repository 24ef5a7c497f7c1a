//! A small deterministic pseudo-random number generator.
//!
//! The generator is xoshiro256** seeded through SplitMix64, the standard
//! recipe recommended by the xoshiro authors. It is not cryptographic; it
//! exists to give the workload generators and the property-test harness
//! reproducible, well-distributed streams without an external crate.

/// One SplitMix64 step: advances `state` and returns the next output.
///
/// Also used directly by the workload generators to derive independent
/// per-client seeds from a master seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic PRNG (xoshiro256**) with convenience samplers.
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[expect(
        clippy::cast_precision_loss,
        reason = "the top 53 bits of a u64 are exact in f64; 2^53 likewise"
    )]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn gen_f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.gen_f64()
    }

    /// Uniform `usize` in `[range.start, range.end)`.
    ///
    /// Returns `range.start` for an empty range rather than panicking, so
    /// callers can sample degenerate ranges without guarding.
    pub fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        if range.end <= range.start {
            return range.start;
        }
        let span = crate::convert::usize_to_u64(range.end - range.start);
        // Multiply-shift bounded sampling (Lemire); the slight modulo bias
        // of the naive approach is avoided without a rejection loop.
        let hi = ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64;
        range.start + crate::convert::u64_to_usize(hi)
    }

    /// The generator's internal state, for checkpointing. Restoring via
    /// [`DetRng::from_state`] resumes the exact stream position.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a state captured by [`DetRng::state`].
    pub fn from_state(s: [u64; 4]) -> Self {
        DetRng { s }
    }

    /// Uniform boolean.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Bernoulli trial: `true` with probability `p`.
    pub fn gen_ratio(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = DetRng::seed_from_u64(43);
        assert_ne!(DetRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = DetRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut rng = DetRng::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.gen_range(3..13);
            assert!((3..13).contains(&v));
            seen[v - 3] = true;
        }
        assert!(seen.iter().all(|s| *s), "all buckets hit");
        assert_eq!(rng.gen_range(5..5), 5, "empty range is total");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "50 elements should move");
    }

    #[test]
    fn ratio_tracks_probability() {
        let mut rng = DetRng::seed_from_u64(13);
        let hits = (0..10_000).filter(|_| rng.gen_ratio(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits {hits}");
    }
}
