//! Device congestion model.
//!
//! Real block devices have little visibility into contention (§3.2.3),
//! but their *latency* degrades as offered IOPS approach capacity. We
//! model this with an exponentially-weighted arrival-rate estimate and
//! an M/M/1-style service-time inflation factor `1 / (1 - ρ)`, capped so
//! an oversubscribed device degrades smoothly instead of diverging.

use tmo_sim::{RateCounter, SimDuration};

/// Maximum latency inflation at saturation.
const MAX_INFLATION: f64 = 8.0;

/// Utilisation ceiling used in the inflation formula; arrival rates
/// beyond capacity saturate at `MAX_INFLATION`.
const RHO_CAP: f64 = 0.95;

/// EWMA window for the arrival-rate estimate.
const RATE_WINDOW: SimDuration = SimDuration::from_secs(2);

/// Tracks offered load against an IOPS capacity and converts utilisation
/// into a latency multiplier.
///
/// # Example
///
/// ```
/// use tmo_backends::CongestionModel;
/// use tmo_sim::SimDuration;
///
/// let mut q = CongestionModel::new(1000.0); // 1k IOPS capacity
/// assert_eq!(q.inflation(), 1.0);           // idle device
/// for _ in 0..10_000 {
///     q.on_arrival();
/// }
/// q.tick(SimDuration::from_secs(1));
/// assert!(q.inflation() > 2.0);             // badly oversubscribed
/// ```
#[derive(Debug, Clone)]
pub struct CongestionModel {
    capacity_iops: f64,
    arrivals: RateCounter,
}

impl CongestionModel {
    /// Creates a model for a device with the given IOPS capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_iops` is not strictly positive and finite.
    pub fn new(capacity_iops: f64) -> Self {
        assert!(
            capacity_iops > 0.0 && capacity_iops.is_finite(),
            "capacity must be positive, got {capacity_iops}"
        );
        CongestionModel {
            capacity_iops,
            arrivals: RateCounter::new(RATE_WINDOW),
        }
    }

    /// The configured IOPS capacity.
    pub fn capacity_iops(&self) -> f64 {
        self.capacity_iops
    }

    /// Records one request arrival.
    pub fn on_arrival(&mut self) {
        self.arrivals.add(1);
    }

    /// Folds the tick's arrivals into the rate estimate; call once per
    /// simulation tick with the tick length.
    pub fn tick(&mut self, dt: SimDuration) {
        self.arrivals.tick(dt);
    }

    /// Current utilisation estimate `ρ` in `[0, ∞)`.
    pub fn utilization(&self) -> f64 {
        self.arrivals.rate() / self.capacity_iops
    }

    /// The latency multiplier to apply to base service time:
    /// `min(1 / (1 - min(ρ, 0.95)), MAX_INFLATION)`.
    pub fn inflation(&self) -> f64 {
        let rho = self.utilization().min(RHO_CAP);
        (1.0 / (1.0 - rho)).min(MAX_INFLATION)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_device_has_unit_inflation() {
        let q = CongestionModel::new(100_000.0);
        assert_eq!(q.inflation(), 1.0);
        assert_eq!(q.utilization(), 0.0);
    }

    #[test]
    fn light_load_barely_inflates() {
        let mut q = CongestionModel::new(100_000.0);
        for _ in 0..1000 {
            q.on_arrival(); // 1k IOPS against 100k capacity
        }
        for _ in 0..20 {
            q.tick(SimDuration::from_secs(1));
            for _ in 0..1000 {
                q.on_arrival();
            }
        }
        assert!(q.inflation() < 1.05, "inflation {}", q.inflation());
    }

    #[test]
    fn saturation_caps_inflation() {
        let mut q = CongestionModel::new(100.0);
        for _ in 0..30 {
            for _ in 0..100_000 {
                q.on_arrival();
            }
            q.tick(SimDuration::from_secs(1));
        }
        assert!(q.inflation() <= MAX_INFLATION);
        assert!(q.inflation() > 5.0);
    }

    #[test]
    fn load_decays_after_burst() {
        let mut q = CongestionModel::new(100.0);
        for _ in 0..10_000 {
            q.on_arrival();
        }
        q.tick(SimDuration::from_secs(1));
        let busy = q.inflation();
        for _ in 0..30 {
            q.tick(SimDuration::from_secs(1));
        }
        assert!(q.inflation() < busy);
        assert!(q.inflation() < 1.01);
    }

    #[test]
    fn zero_dt_tick_is_noop() {
        let mut q = CongestionModel::new(100.0);
        q.on_arrival();
        q.tick(SimDuration::ZERO);
        assert_eq!(q.utilization(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = CongestionModel::new(0.0);
    }
}
