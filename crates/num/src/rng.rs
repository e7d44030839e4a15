//! Deterministic pseudo-random numbers: `SplitMix64` seeding feeding a
//! `Xoshiro256**` generator.
//!
//! The paper reports each experiment as the mean of three cluster runs. We
//! cannot reproduce Frontier's run-to-run noise, so instead every stochastic
//! component in this workspace (measurement sampling, QUBO generation,
//! annealing schedules, cloud latency jitter) draws from this generator with
//! an explicit seed, making each experiment bit-for-bit reproducible while
//! still allowing "three repetitions" by seed variation.
//!
//! The generator is implemented from scratch (public-domain algorithms by
//! Blackman & Vigna) so results do not depend on external crate versions.

/// Deterministic `Xoshiro256**` PRNG.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

/// One step of SplitMix64, used to expand a single `u64` seed into the
/// 256-bit xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed. Equal seeds yield equal
    /// streams on every platform.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // Guard against the (astronomically unlikely) all-zero state, which
        // xoshiro cannot escape.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Rng { s }
    }

    /// Derives an independent child generator. Used to hand one stream to
    /// each simulated rank / worker so parallel order never changes results.
    pub fn fork(&mut self, stream: u64) -> Rng {
        let base = self.next_u64();
        Rng::seed_from(base ^ stream.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// A stateless variant of [`Rng::fork`]: the generator for `(seed,
    /// stream)` depends only on those two values, so any process that
    /// knows the pair reconstructs the identical stream without sharing a
    /// parent generator. Distinct streams decorrelate, and every stream
    /// (including 0) differs from `seed_from(seed)` itself. This is what
    /// lets distributed and serial sampling replay bit-identically: both
    /// sides derive the same per-block generators from the same pairs.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut sm = seed;
        let base = splitmix64(&mut sm);
        Rng::seed_from(base ^ stream.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` by Lemire's multiply-shift rejection.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Rejection sampling to remove modulo bias.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n {
                return (m >> 64) as u64;
            }
            let threshold = n.wrapping_neg() % n;
            if lo >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform index in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as i64
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal deviate via Box-Muller (one value per call; the twin
    /// is discarded to keep the state trajectory simple and reproducible).
    pub fn normal(&mut self) -> f64 {
        loop {
            let u1 = self.next_f64();
            if u1 > 1e-300 {
                let u2 = self.next_f64();
                return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
        }
    }

    /// Normal deviate with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.normal()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (partial Fisher-Yates).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct items from {n}");
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    /// Samples an index proportionally to the given non-negative weights.
    ///
    /// # Panics
    /// Panics when all weights are zero or any weight is negative.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights
            .iter()
            .inspect(|&&w| assert!(w >= 0.0, "negative weight {w}"))
            .sum();
        assert!(total > 0.0, "all weights are zero");
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

/// A cumulative-probability table: `O(log n)` per draw by binary search,
/// one uniform per draw. The simulators use it where the table is short and
/// the draws few — splitting shots over block masses, tensor-network
/// marginals; shots over `|amp|^2` go through [`AliasSampler`].
pub struct CdfSampler {
    cdf: Vec<f64>,
    /// `guide[k]`: the first entry above `k / len` of the total, where the
    /// search for a target in that slice of the range starts.
    guide: Vec<usize>,
}

impl CdfSampler {
    /// Builds from (possibly unnormalized) non-negative weights.
    pub fn new(weights: &[f64]) -> Self {
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            debug_assert!(w >= -1e-12, "negative probability {w}");
            acc += w.max(0.0);
            cdf.push(acc);
        }
        assert!(acc > 0.0, "cannot sample from all-zero weights");
        let len = cdf.len();
        let mut at = 0;
        let guide = (0..len)
            .map(|k| {
                let floor = acc * k as f64 / len as f64;
                while at + 1 < len && cdf[at] <= floor {
                    at += 1;
                }
                at
            })
            .collect();
        CdfSampler { cdf, guide }
    }

    /// Draws one index: [`index_of`](Self::index_of) a uniform target.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cdf.last().unwrap();
        self.index_of(rng.next_f64() * total)
    }

    /// The first entry whose cumulative weight exceeds `target` (the last
    /// entry when none does) — the upper bound a binary search over the
    /// CDF returns, found by a short walk from the guide table's slot. The
    /// walk goes both ways, so the slot is only a hint and rounding in it
    /// cannot change the index.
    pub fn index_of(&self, target: f64) -> usize {
        let (cdf, last) = (&self.cdf, self.cdf.len() - 1);
        let slot = (target / cdf[last] * cdf.len() as f64) as usize;
        let mut i = self.guide[slot.min(last)];
        while i > 0 && cdf[i - 1] > target {
            i -= 1;
        }
        while i < last && cdf[i] <= target {
            i += 1;
        }
        i
    }
}

/// Walker/Vose alias-method sampler: `O(n)` table build, `O(1)` per draw.
///
/// Each cell `i` holds a threshold `prob[i]` and a backup column `alias[i]`;
/// a draw picks a uniform cell, then keeps it or jumps to its alias (two
/// uniforms per shot where [`CdfSampler`] takes one, so the two draw
/// different sequences from one seed).
pub struct AliasSampler {
    prob: Vec<f64>,
    alias: Vec<usize>,
    // Partition worklists, kept as fields so `rebuild` callers looping
    // over many small weight slices (split-block sampling) reuse all four
    // buffers instead of reallocating them per table.
    small: Vec<(usize, f64)>,
    large: Vec<(usize, f64)>,
}

impl AliasSampler {
    /// An empty sampler; [`rebuild`](Self::rebuild) before drawing.
    pub fn empty() -> Self {
        AliasSampler {
            prob: Vec::new(),
            alias: Vec::new(),
            small: Vec::new(),
            large: Vec::new(),
        }
    }

    /// Builds from (possibly unnormalized) non-negative weights.
    ///
    /// # Panics
    /// Panics when all weights are zero (nothing to sample).
    pub fn new(weights: &[f64]) -> Self {
        let mut s = Self::empty();
        s.rebuild(weights);
        s
    }

    /// Rebuilds the table in place from new weights, reusing every
    /// internal buffer. Produces tables (and thus draw sequences)
    /// identical to a fresh [`new`](Self::new).
    ///
    /// # Panics
    /// Panics when all weights are zero (nothing to sample).
    pub fn rebuild(&mut self, weights: &[f64]) {
        let n = weights.len();
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        assert!(total > 0.0, "cannot sample from all-zero weights");
        let scale = n as f64 / total;

        // Vose's stable partition: cells scaled so the average is 1; light
        // cells (< 1) are topped up from heavy ones, each pairing fixing one
        // light cell for good.
        self.prob.clear();
        self.prob.resize(n, 1.0);
        self.alias.clear();
        self.alias.extend(0..n);
        let (prob, alias) = (&mut self.prob, &mut self.alias);
        let (small, large) = (&mut self.small, &mut self.large);
        small.clear();
        large.clear();
        for (i, &w) in weights.iter().enumerate() {
            let p = w.max(0.0) * scale;
            if p < 1.0 {
                small.push((i, p));
            } else {
                large.push((i, p));
            }
        }
        while !small.is_empty() && !large.is_empty() {
            let (s, ps) = small.pop().unwrap();
            let (l, pl) = large.pop().unwrap();
            prob[s] = ps;
            alias[s] = l;
            let rem = pl - (1.0 - ps);
            if rem < 1.0 {
                small.push((l, rem));
            } else {
                large.push((l, rem));
            }
        }
        // Leftovers are exactly 1 up to rounding; saturate them.
        for &(i, _) in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
            alias[i] = i;
        }
    }

    /// Draws one index in O(1): one cell pick plus one threshold test.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let i = rng.index(self.prob.len());
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::seed_from(42);
        let mut b = Rng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_streams_are_independent_of_parent_progress() {
        let mut parent1 = Rng::seed_from(9);
        let child1 = parent1.fork(3);
        let mut parent2 = Rng::seed_from(9);
        let child2 = parent2.fork(3);
        assert_eq!(child1.s, child2.s);
    }

    #[test]
    fn stream_is_stateless_and_decorrelated() {
        // Same (seed, stream) pair → identical generator, no parent state.
        let mut a = Rng::stream(7, 3);
        let mut b = Rng::stream(7, 3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Distinct streams and the base generator all diverge.
        let mut s0 = Rng::stream(7, 0);
        let mut s1 = Rng::stream(7, 1);
        let mut base = Rng::seed_from(7);
        let mut same01 = 0;
        let mut same0b = 0;
        for _ in 0..64 {
            let x0 = s0.next_u64();
            if x0 == s1.next_u64() {
                same01 += 1;
            }
            if x0 == base.next_u64() {
                same0b += 1;
            }
        }
        assert!(same01 < 4 && same0b < 4);
    }

    #[test]
    fn uniform_in_bounds_and_roughly_uniform() {
        let mut rng = Rng::seed_from(5);
        let mut mean = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let x = rng.uniform(2.0, 4.0);
            assert!((2.0..4.0).contains(&x));
            mean += x;
        }
        mean /= n as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = Rng::seed_from(6);
        let mut counts = [0usize; 5];
        let n = 50_000;
        for _ in 0..n {
            counts[rng.below(5) as usize] += 1;
        }
        for &c in &counts {
            let expected = n / 5;
            assert!(
                (c as i64 - expected as i64).abs() < (expected as i64) / 10,
                "count {c} vs expected {expected}"
            );
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from(8);
        let n = 50_000;
        let (mut m1, mut m2) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.normal();
            m1 += x;
            m2 += x * x;
        }
        m1 /= n as f64;
        m2 /= n as f64;
        assert!(m1.abs() < 0.02, "mean {m1}");
        assert!((m2 - 1.0).abs() < 0.03, "variance {m2}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from(10);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Rng::seed_from(12);
        let ks = rng.sample_indices(20, 8);
        assert_eq!(ks.len(), 8);
        let mut sorted = ks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        assert!(ks.iter().all(|&k| k < 20));
    }

    #[test]
    fn weighted_respects_weights() {
        let mut rng = Rng::seed_from(14);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn cdf_sampler_matches_distribution() {
        let mut rng = Rng::seed_from(16);
        let sampler = CdfSampler::new(&[0.25, 0.0, 0.75]);
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let p0 = counts[0] as f64 / 40_000.0;
        assert!((p0 - 0.25).abs() < 0.02, "p0 {p0}");
    }

    #[test]
    #[should_panic(expected = "all weights are zero")]
    fn weighted_rejects_all_zero() {
        let mut rng = Rng::seed_from(18);
        let _ = rng.weighted(&[0.0, 0.0]);
    }

    #[test]
    fn alias_sampler_matches_distribution() {
        let mut rng = Rng::seed_from(20);
        let sampler = AliasSampler::new(&[0.25, 0.0, 0.75]);
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight column drawn");
        let p0 = counts[0] as f64 / 40_000.0;
        assert!((p0 - 0.25).abs() < 0.02, "p0 {p0}");
    }

    #[test]
    fn alias_table_is_exact_on_reconstruction() {
        // Summing each column's retained mass plus the mass it receives as
        // an alias reconstructs the input distribution to rounding error.
        let weights = [0.05, 1.0, 0.2, 0.0, 3.0, 0.75, 0.0, 0.5];
        let total: f64 = weights.iter().sum();
        let s = AliasSampler::new(&weights);
        let n = weights.len();
        let mut mass = vec![0.0f64; n];
        for i in 0..n {
            mass[i] += s.prob[i] / n as f64;
            mass[s.alias[i]] += (1.0 - s.prob[i]) / n as f64;
        }
        for (i, &w) in weights.iter().enumerate() {
            assert!(
                (mass[i] - w / total).abs() < 1e-12,
                "column {i}: {} vs {}",
                mass[i],
                w / total
            );
        }
    }

    #[test]
    fn alias_single_column_always_drawn() {
        let mut rng = Rng::seed_from(22);
        let s = AliasSampler::new(&[2.5]);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample from all-zero weights")]
    fn alias_rejects_all_zero() {
        let _ = AliasSampler::new(&[0.0, 0.0, 0.0]);
    }

    #[test]
    fn alias_and_cdf_agree_within_total_variation_bound() {
        // Statistical contract: at a fixed seed, the empirical distributions
        // drawn by the two samplers over a skewed 64-bin table must agree
        // within a small total-variation distance (they are different draw
        // sequences over the same distribution).
        let mut wrng = Rng::seed_from(24);
        let n = 64;
        let weights: Vec<f64> = (0..n)
            .map(|i| {
                if i % 7 == 0 {
                    0.0
                } else {
                    wrng.next_f64().powi(2)
                }
            })
            .collect();
        let shots = 200_000usize;

        let draw_hist = |f: &dyn Fn(&mut Rng) -> usize| {
            let mut rng = Rng::seed_from(26);
            let mut h = vec![0usize; n];
            for _ in 0..shots {
                h[f(&mut rng)] += 1;
            }
            h
        };
        let cdf = CdfSampler::new(&weights);
        let alias = AliasSampler::new(&weights);
        let hc = draw_hist(&|rng| cdf.sample(rng));
        let ha = draw_hist(&|rng| alias.sample(rng));

        let tv: f64 = hc
            .iter()
            .zip(ha.iter())
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .sum::<f64>()
            / (2.0 * shots as f64);
        assert!(tv < 0.01, "total-variation distance {tv} too large");
        for i in (0..n).step_by(7) {
            assert_eq!(hc[i] + ha[i], 0, "zero-weight bin {i} drawn");
        }
    }
}
