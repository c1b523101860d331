//! Streaming statistics.
//!
//! Experiments track latency percentiles over long runs; storing every
//! sample is wasteful. [`P2Quantile`] implements the P² algorithm (Jain
//! & Chlamtac, 1985): a constant-space estimator that maintains five
//! markers and adjusts them with piecewise-parabolic interpolation.
//! [`Welford`] tracks mean/variance in constant space. [`Ewma`] is the
//! exponentially decayed average behind PSI's avg10/60/300 and every
//! smoothed rate; [`RateCounter`] feeds it per-tick event counts.

use crate::time::SimDuration;

/// Streaming quantile estimator (the P² algorithm).
///
/// # Example
///
/// ```
/// use tmo_sim::stats::P2Quantile;
///
/// let mut p90 = P2Quantile::new(0.9);
/// for i in 1..=1000 {
///     p90.observe(i as f64);
/// }
/// let est = p90.value();
/// assert!((est - 900.0).abs() < 20.0, "estimate {est}");
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Marker positions (1-based sample ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    /// Samples seen so far.
    count: u64,
    /// Initial buffer until five samples arrive.
    initial: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for the `q`-quantile.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile {q} out of (0, 1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            initial: Vec::with_capacity(5),
        }
    }

    /// The targeted quantile.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Feeds one sample.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if self.initial.len() < 5 {
            self.initial.push(x);
            if self.initial.len() == 5 {
                self.initial
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
                for (h, v) in self.heights.iter_mut().zip(&self.initial) {
                    *h = *v;
                }
            }
            return;
        }

        // Find the cell k containing x and update extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };

        for position in self.positions.iter_mut().skip(k + 1) {
            *position += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(&self.increments) {
            *d += inc;
        }

        // Adjust the three middle markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let sign = d.signum();
                let candidate = self.parabolic(i, sign);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, sign)
                    };
                self.positions[i] += sign;
            }
        }
    }

    fn parabolic(&self, i: usize, sign: f64) -> f64 {
        let (hm, h, hp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, n, np) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        h + sign / (np - nm)
            * ((n - nm + sign) * (hp - h) / (np - n) + (np - n - sign) * (h - hm) / (n - nm))
    }

    fn linear(&self, i: usize, sign: f64) -> f64 {
        let j = (i as f64 + sign) as usize;
        self.heights[i]
            + sign * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current quantile estimate. Before five samples arrive this is
    /// the nearest-rank quantile of what has been seen (0.0 when empty).
    pub fn value(&self) -> f64 {
        if self.initial.len() < 5 {
            if self.initial.is_empty() {
                return 0.0;
            }
            let mut sorted = self.initial.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            let idx = ((sorted.len() - 1) as f64 * self.q).round() as usize;
            return sorted[idx];
        }
        self.heights[2]
    }
}

/// Welford's online mean/variance.
///
/// # Example
///
/// ```
/// use tmo_sim::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.observe(x);
/// }
/// assert!((w.mean() - 5.0).abs() < 1e-12);
/// assert!((w.variance() - 4.571428).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Feeds one sample.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0.0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }
}

/// An exponentially decayed average over a time window, sampled at
/// possibly irregular periods. For a sample `x` observed over `dt`:
///
/// ```text
/// decay = exp(-dt / window)
/// value = value * decay + x * (1 - decay)
/// ```
///
/// # Example
///
/// ```
/// use tmo_sim::{Ewma, SimDuration};
///
/// let mut avg = Ewma::new(SimDuration::from_secs(10));
/// for _ in 0..100 {
///     avg.update(0.5, SimDuration::from_secs(2));
/// }
/// assert!((avg.value() - 0.5).abs() < 1e-6); // converges to the input
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    window_secs: f64,
    value: f64,
    /// Sampling period the cached decay factor was computed for.
    /// Simulation ticks are fixed-length, so the `exp` runs once per
    /// run instead of once per update; the cache returns the exact
    /// `f64` the recomputation would, so averages are unchanged.
    cached_dt_secs: f64,
    cached_decay: f64,
}

impl Ewma {
    /// Creates a zeroed average over the given window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "averaging window must be non-zero");
        Ewma {
            window_secs: window.as_secs_f64(),
            value: 0.0,
            cached_dt_secs: 0.0,
            cached_decay: 1.0,
        }
    }

    /// Current average.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Folds in `sample`, observed over `dt`. A zero `dt` is a no-op.
    pub fn update(&mut self, sample: f64, dt: SimDuration) {
        if dt.is_zero() {
            return;
        }
        let dt_secs = dt.as_secs_f64();
        if dt_secs != self.cached_dt_secs {
            self.cached_dt_secs = dt_secs;
            self.cached_decay = (-dt_secs / self.window_secs).exp();
        }
        let decay = self.cached_decay;
        self.value = self.value * decay + sample * (1.0 - decay);
    }
}

/// A decaying event-rate estimate (events/second): events counted
/// during a tick are folded into an [`Ewma`] of the per-second rate
/// when the tick ends.
///
/// # Example
///
/// ```
/// use tmo_sim::{RateCounter, SimDuration};
///
/// let mut r = RateCounter::new(SimDuration::from_secs(30));
/// for _ in 0..120 {
///     r.add(10);
///     r.tick(SimDuration::from_secs(1)); // 10 events/s sustained
/// }
/// assert!((r.rate() - 10.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateCounter {
    pending: u64,
    total: u64,
    rate: Ewma,
}

impl RateCounter {
    /// Creates a counter with the given averaging window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        RateCounter {
            pending: 0,
            total: 0,
            rate: Ewma::new(window),
        }
    }

    /// Records `n` events.
    pub fn add(&mut self, n: u64) {
        self.pending += n;
        self.total += n;
    }

    /// Folds pending events into the rate; call once per tick. A zero
    /// `dt` keeps the events pending.
    pub fn tick(&mut self, dt: SimDuration) {
        if dt.is_zero() {
            return;
        }
        self.rate.update(self.pending as f64 / dt.as_secs_f64(), dt);
        self.pending = 0;
    }

    /// Smoothed events/second.
    pub fn rate(&self) -> f64 {
        self.rate.value()
    }

    /// Cumulative event count (monotonic, like a `memory.stat` counter).
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn p2_tracks_uniform_quantiles() {
        let mut rng = DetRng::seed_from_u64(1);
        for q in [0.5, 0.9, 0.99] {
            let mut est = P2Quantile::new(q);
            for _ in 0..50_000 {
                est.observe(rng.uniform());
            }
            let v = est.value();
            assert!((v - q).abs() < 0.02, "q={q} estimate {v}");
        }
    }

    #[test]
    fn p2_tracks_heavy_tailed_p90() {
        let mut rng = DetRng::seed_from_u64(2);
        let mut est = P2Quantile::new(0.9);
        let mut all: Vec<f64> = Vec::new();
        for _ in 0..50_000 {
            let x = rng.log_normal(1.0, 0.6);
            est.observe(x);
            all.push(x);
        }
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let exact = all[(all.len() as f64 * 0.9) as usize];
        let rel = (est.value() - exact).abs() / exact;
        assert!(rel < 0.05, "estimate {} vs exact {exact}", est.value());
    }

    #[test]
    fn p2_small_sample_fallback() {
        let mut est = P2Quantile::new(0.5);
        assert_eq!(est.value(), 0.0);
        est.observe(3.0);
        est.observe(1.0);
        est.observe(2.0);
        assert_eq!(est.value(), 2.0);
        assert_eq!(est.count(), 3);
    }

    #[test]
    fn p2_constant_stream() {
        let mut est = P2Quantile::new(0.9);
        for _ in 0..1000 {
            est.observe(7.0);
        }
        assert_eq!(est.value(), 7.0);
    }

    #[test]
    #[should_panic(expected = "out of (0, 1)")]
    fn p2_rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    fn welford_matches_two_pass() {
        let mut rng = DetRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..10_000).map(|_| rng.exponential(5.0)).collect();
        let mut w = Welford::new();
        for &x in &samples {
            w.observe(x);
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.variance() - var).abs() / var < 1e-9);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.observe(42.0);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn ewma_cached_decay_matches_recomputation_bit_for_bit() {
        // Fixed runs, changes, repeats after a change, and zeros.
        let dts_ms = [
            100, 100, 100, 2000, 2000, 0, 2000, 100, 0, 0, 100, 7, 1, 100, 60_000, 100,
        ];
        let mut rng = DetRng::seed_from_u64(4);
        for window in [2, 10, 60, 300] {
            let window = SimDuration::from_secs(window);
            let mut cached = Ewma::new(window);
            let mut reference = 0.0f64;
            for &ms in dts_ms.iter().cycle().take(400) {
                let sample = rng.uniform() * 1e6;
                let dt = SimDuration::from_millis(ms);
                cached.update(sample, dt);
                if ms > 0 {
                    let decay = (-dt.as_secs_f64() / window.as_secs_f64()).exp();
                    reference = reference * decay + sample * (1.0 - decay);
                }
                assert_eq!(cached.value().to_bits(), reference.to_bits());
            }
        }
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut avg = Ewma::new(SimDuration::from_secs(10));
        for _ in 0..200 {
            avg.update(0.3, SimDuration::from_secs(2));
        }
        assert!((avg.value() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn ewma_decays_toward_zero_after_input_stops() {
        let mut avg = Ewma::new(SimDuration::from_secs(10));
        avg.update(1.0, SimDuration::from_secs(10));
        let peak = avg.value();
        for _ in 0..50 {
            avg.update(0.0, SimDuration::from_secs(2));
        }
        assert!(avg.value() < peak * 0.01);
    }

    #[test]
    fn ewma_single_large_dt_jumps_close_to_input() {
        let mut avg = Ewma::new(SimDuration::from_secs(10));
        avg.update(0.8, SimDuration::from_secs(100)); // 10 windows
        assert!((avg.value() - 0.8).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "averaging window must be non-zero")]
    fn ewma_zero_window_panics() {
        let _ = Ewma::new(SimDuration::ZERO);
    }

    #[test]
    fn rate_counter_converges_and_decays() {
        let mut r = RateCounter::new(SimDuration::from_secs(10));
        for _ in 0..100 {
            r.add(5);
            r.tick(SimDuration::from_secs(1));
        }
        assert!((r.rate() - 5.0).abs() < 0.1, "rate {}", r.rate());
        for _ in 0..100 {
            r.tick(SimDuration::from_secs(1));
        }
        assert!(r.rate() < 0.01);
        assert_eq!(r.total(), 500);
    }

    #[test]
    fn rate_counter_zero_dt_noop() {
        let mut r = RateCounter::new(SimDuration::from_secs(10));
        r.add(3);
        r.tick(SimDuration::ZERO);
        assert_eq!(r.rate(), 0.0);
        assert_eq!(r.total(), 3);
        // The events stay pending until a real tick folds them in.
        r.tick(SimDuration::from_secs(1));
        assert!(r.rate() > 0.0);
    }
}
