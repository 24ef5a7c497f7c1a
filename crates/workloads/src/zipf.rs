//! Seeded popularity samplers: true Zipf and the 80/20 hot-set rule.

use lunule_util::DetRng;

/// Samples indices `0..n` from a Zipf(s) popularity distribution (rank 0 is
/// the most popular item) using a precomputed cumulative table — O(log n)
/// per sample, exact, deterministic under a seeded RNG.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` items with exponent `s > 0`.
    ///
    /// # Panics
    /// Panics when `n == 0` or `s <= 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "cannot sample from zero items");
        assert!(s > 0.0, "Zipf exponent must be positive");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        ZipfSampler { cumulative }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True when the sampler holds no items (never: the constructor
    /// rejects `n == 0`); part of the `len`/`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.gen_f64();
        self.cumulative
            .partition_point(|c| *c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// The Filebench-style 80/20 rule: with probability `hot_weight` draw
/// uniformly from the first `hot_fraction` share of items, otherwise from
/// the remainder ("80 % of requests are touching 20 % of files").
#[derive(Clone, Copy, Debug)]
pub struct HotSetSampler {
    n: usize,
    hot_n: usize,
    hot_weight: f64,
}

impl HotSetSampler {
    /// Builds the sampler over `n` items.
    ///
    /// # Panics
    /// Panics when `n == 0` or the fractions are not in `(0, 1)`.
    pub fn new(n: usize, hot_fraction: f64, hot_weight: f64) -> Self {
        assert!(n > 0, "cannot sample from zero items");
        assert!(
            (0.0..1.0).contains(&hot_fraction) && hot_fraction > 0.0,
            "hot fraction must be in (0, 1)"
        );
        assert!(
            (0.0..=1.0).contains(&hot_weight),
            "hot weight must be in [0, 1]"
        );
        HotSetSampler {
            n,
            hot_n: ((n as f64 * hot_fraction).round() as usize).clamp(1, n),
            hot_weight,
        }
    }

    /// Draws one index.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        if self.n == self.hot_n || rng.gen_f64() < self.hot_weight {
            rng.gen_range(0..self.hot_n)
        } else {
            rng.gen_range(self.hot_n..self.n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut rng = DetRng::seed_from_u64(7);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[999] * 5);
        // Harmonic: rank 0 gets about 1/H(1000) ~ 13% of draws.
        assert!(
            counts[0] > 1_500 && counts[0] < 4_500,
            "rank0={}",
            counts[0]
        );
    }

    #[test]
    fn zipf_samples_in_range() {
        let z = ZipfSampler::new(10, 0.8);
        let mut rng = DetRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn hotset_obeys_eighty_twenty() {
        let h = HotSetSampler::new(1000, 0.2, 0.8);
        assert_eq!(h.hot_n, 200);
        let mut rng = DetRng::seed_from_u64(11);
        let hot_hits = (0..50_000).filter(|_| h.sample(&mut rng) < 200).count();
        let share = hot_hits as f64 / 50_000.0;
        assert!((share - 0.8).abs() < 0.02, "hot share {share}");
    }

    #[test]
    fn hotset_single_item() {
        let h = HotSetSampler::new(1, 0.5, 0.8);
        let mut rng = DetRng::seed_from_u64(1);
        assert_eq!(h.sample(&mut rng), 0);
    }

    #[test]
    fn determinism() {
        let z = ZipfSampler::new(100, 1.0);
        let draw = |seed| {
            let mut rng = DetRng::seed_from_u64(seed);
            (0..50).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    #[should_panic]
    fn zipf_rejects_empty() {
        ZipfSampler::new(0, 1.0);
    }
}
