//! Deterministic random number generation and sampling distributions.
//!
//! Every stochastic component of the simulator draws from a [`DetRng`]
//! seeded at run construction, so two runs with the same seed are
//! bit-for-bit identical. The distributions the simulator needs
//! (exponential, log-normal, Zipf, Bernoulli) are implemented here from
//! first principles on top of the uniform generator so results do not
//! depend on external crates' sampling internals.

/// A seeded deterministic random number generator.
///
/// Internally a xoshiro256++ generator seeded through SplitMix64, plus
/// the sampling distributions used throughout the simulator. The
/// generator is implemented here (rather than delegating to an external
/// crate) so that simulation runs remain bit-for-bit reproducible across
/// dependency upgrades.
///
/// # Example
///
/// ```
/// use tmo_sim::DetRng;
///
/// let mut a = DetRng::seed_from_u64(42);
/// let mut b = DetRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: [u64; 4],
}

/// One SplitMix64 step: advances `state` and returns the mixed output.
/// The seed expander behind [`DetRng`], host-seed derivation and the
/// stateless fault-plan hashes.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the machine seed for one host of a multi-host fleet from the
/// experiment-level seed and the host's index.
///
/// The mapping is a pure function of `(experiment_seed, host_index)` —
/// independent of worker count, scheduling order, or any RNG state — so
/// a fleet sharded over N threads draws exactly the same per-host
/// streams as a sequential run. Two SplitMix64 steps mix each input so
/// that neighbouring hosts (and neighbouring experiment seeds) get
/// decorrelated streams.
///
/// # Example
///
/// ```
/// use tmo_sim::rng::derive_host_seed;
///
/// assert_eq!(derive_host_seed(900, 3), derive_host_seed(900, 3));
/// assert_ne!(derive_host_seed(900, 3), derive_host_seed(900, 4));
/// assert_ne!(derive_host_seed(900, 3), derive_host_seed(901, 3));
/// ```
pub fn derive_host_seed(experiment_seed: u64, host_index: u64) -> u64 {
    let mut state = experiment_seed;
    let mixed_experiment = splitmix64(&mut state);
    let mut state = host_index ^ mixed_experiment.rotate_left(17);
    splitmix64(&mut state) ^ mixed_experiment
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        DetRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child generator; used to give each
    /// container / device its own stream so adding one component does not
    /// perturb the draws of another.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        let seed = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::seed_from_u64(seed)
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits give a uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` via Lemire's unbiased multiply-shift
    /// rejection method. Returns 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.below_with(n, Self::below_threshold(n))
    }

    /// The rejection threshold [`DetRng::below`] derives for bound `n`.
    /// The `%` here is the one hardware divide in a draw; a loop making
    /// many draws with the same bound should compute it once and call
    /// [`DetRng::below_with`], which consumes the generator identically.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `n == 0`.
    pub fn below_threshold(n: u64) -> u64 {
        debug_assert!(n > 0, "threshold of empty range");
        n.wrapping_neg() % n
    }

    /// [`DetRng::below`] with the rejection threshold precomputed by
    /// [`DetRng::below_threshold`]: same draws, same rejections, same
    /// value — bit-identical to the single-call form.
    pub fn below_with(&mut self, n: u64, threshold: u64) -> u64 {
        debug_assert_eq!(threshold, Self::below_threshold(n), "stale threshold");
        loop {
            let m = (self.next_u64() as u128) * (n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Exponentially distributed value with the given mean (inverse
    /// transform sampling). Returns 0 for non-positive means.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = 1.0 - self.uniform(); // (0, 1]
        -mean * u.ln()
    }

    /// Standard normal via Box-Muller.
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normally distributed value parameterised by the *median* and a
    /// shape parameter `sigma` (the sigma of the underlying normal).
    ///
    /// Device latency tails in the simulator are modelled as log-normal
    /// because empirical SSD latency distributions are heavy-tailed.
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        if median <= 0.0 {
            return 0.0;
        }
        median * (sigma * self.standard_normal()).exp()
    }

    /// Poisson-distributed count with the given mean.
    ///
    /// Uses Knuth's method for small means and a normal approximation for
    /// large ones (mean > 64), which is accurate enough for access-count
    /// sampling.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean > 64.0 {
            let v = mean + mean.sqrt() * self.standard_normal();
            return v.round().max(0.0) as u64;
        }
        let limit = (-mean).exp();
        let mut product = self.uniform();
        let mut count = 0u64;
        while product > limit {
            count += 1;
            product *= self.uniform();
        }
        count
    }

    /// Samples an index in `[0, weights.len())` proportionally to the
    /// (non-negative) weights. Returns `None` if the weights are empty or
    /// all zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.uniform() * total;
        for (i, w) in weights.iter().enumerate() {
            if *w > 0.0 && w.is_finite() {
                if target < *w {
                    return Some(i);
                }
                target -= *w;
            }
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|w| *w > 0.0)
    }
}

/// A precomputed Zipf sampler over ranks `0..n`.
///
/// Rank `k` (0-based) is drawn with probability proportional to
/// `1 / (k + 1)^s`. Sampling is `O(log n)` via binary search on the
/// cumulative distribution.
///
/// # Example
///
/// ```
/// use tmo_sim::DetRng;
/// use tmo_sim::rng::Zipf;
///
/// let zipf = Zipf::new(1000, 1.0);
/// let mut rng = DetRng::seed_from_u64(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with skew `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative / non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over zero ranks");
        assert!(s >= 0.0 && s.is_finite(), "invalid zipf skew {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler is empty (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a 0-based rank.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.uniform();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(123);
        let mut b = DetRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fork_produces_independent_deterministic_streams() {
        let mut root1 = DetRng::seed_from_u64(9);
        let mut root2 = DetRng::seed_from_u64(9);
        let mut c1 = root1.fork(1);
        let mut c2 = root2.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut other = root1.fork(2);
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = DetRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = DetRng::seed_from_u64(5);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert_eq!(rng.exponential(0.0), 0.0);
        assert_eq!(rng.exponential(-1.0), 0.0);
    }

    #[test]
    fn poisson_mean_is_close_small_and_large() {
        let mut rng = DetRng::seed_from_u64(6);
        for target in [0.5, 4.0, 100.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| rng.poisson(target) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - target).abs() < target.max(1.0) * 0.07,
                "target {target} mean {mean}"
            );
        }
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn log_normal_median_is_close() {
        let mut rng = DetRng::seed_from_u64(7);
        let mut vals: Vec<f64> = (0..20_001).map(|_| rng.log_normal(100.0, 0.5)).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = vals[vals.len() / 2];
        assert!((median - 100.0).abs() < 5.0, "median {median}");
    }

    #[test]
    fn chance_edges() {
        let mut rng = DetRng::seed_from_u64(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = DetRng::seed_from_u64(9);
        let weights = [0.0, 3.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights).expect("positive weights")] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = DetRng::seed_from_u64(10);
        let mut rank0 = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if zipf.sample(&mut rng) == 0 {
                rank0 += 1;
            }
        }
        // P(rank 0) = 1/H_100 ~= 0.1928
        let p0 = rank0 as f64 / n as f64;
        assert!((p0 - 0.1928).abs() < 0.02, "p0 {p0}");
    }

    #[test]
    fn zipf_uniform_when_skew_zero() {
        let zipf = Zipf::new(10, 0.0);
        let mut rng = DetRng::seed_from_u64(11);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for c in counts {
            let p = c as f64 / 50_000.0;
            assert!((p - 0.1).abs() < 0.02, "p {p}");
        }
    }

    #[test]
    #[should_panic(expected = "zipf over zero ranks")]
    fn zipf_zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
