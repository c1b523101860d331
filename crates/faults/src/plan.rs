//! The stateless hash core every fault decision derives from.

use tmo_sim::rng::{derive_host_seed, splitmix64};
use tmo_sim::seed_ns::FAULT_PLAN_SEED_NS;

/// Salt namespaces, one per fault category, so decisions in different
/// categories are decorrelated even at the same tick.
pub(crate) mod salt {
    pub const LATENCY_SPIKE: u64 = 0x51;
    pub const SPIKE_LEN: u64 = 0x52;
    pub const TRANSIENT_IO: u64 = 0x10;
    pub const RETRIES: u64 = 0x11;
    pub const DEVICE_DEATH: u64 = 0xD1E;
    pub const WEAR_OUT: u64 = 0xE4D;
    pub const POOL_EXHAUST: u64 = 0xF00;
    pub const SIGNAL: u64 = 0x516;
    pub const CRASH: u64 = 0xC0;
    pub const CRASH_VICTIM: u64 = 0xC1;
    pub const PANIC: u64 = 0xBAD;
}

/// A deterministic fault schedule for one host.
///
/// Holds nothing but a derived seed; every query is a pure hash of
/// `(that seed, tick, salt)`. Because no state advances between
/// queries, the answers are independent of *when* or *how often* the
/// plan is consulted — the property that keeps `--jobs N` runs
/// bit-identical to `--jobs 1`.
///
/// # Example
///
/// ```
/// use tmo_faults::FaultPlan;
///
/// let a = FaultPlan::new(1300, 4);
/// let b = FaultPlan::new(1300, 4);
/// assert_eq!(a.uniform(7, 0x51), b.uniform(7, 0x51));
/// assert_ne!(
///     FaultPlan::new(1300, 4).uniform(7, 0x51),
///     FaultPlan::new(1300, 5).uniform(7, 0x51),
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
}

impl FaultPlan {
    /// Derives the plan for `host_index` of an experiment, using the
    /// same seed-derivation discipline as the fleet runner but in a
    /// disjoint registered namespace (`tmo_sim::seed_ns`), so fault
    /// draws never correlate with the host's workload RNG streams.
    pub fn new(experiment_seed: u64, host_index: u64) -> Self {
        FaultPlan {
            seed: derive_host_seed(experiment_seed ^ FAULT_PLAN_SEED_NS, host_index),
        }
    }

    fn hash(&self, tick: u64, salt: u64) -> u64 {
        let mut state = self.seed ^ salt.rotate_left(32);
        let mixed = splitmix64(&mut state);
        let mut state = tick ^ mixed.rotate_left(17);
        splitmix64(&mut state) ^ mixed
    }

    /// A uniform draw in `[0, 1)` for `(tick, salt)`.
    pub fn uniform(&self, tick: u64, salt: u64) -> f64 {
        // 53 mantissa bits, the standard u64 → f64 uniform construction.
        (self.hash(tick, salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Whether the event with probability `p` fires at `(tick, salt)`.
    pub fn chance(&self, tick: u64, salt: u64, p: f64) -> bool {
        p > 0.0 && self.uniform(tick, salt) < p
    }

    /// A uniform pick in `[0, n)` for `(tick, salt)`; `None` if `n == 0`.
    pub fn pick(&self, tick: u64, salt: u64, n: u64) -> Option<u64> {
        if n == 0 {
            None
        } else {
            Some(self.hash(tick, salt) % n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_are_pure() {
        let plan = FaultPlan::new(900, 2);
        let first: Vec<f64> = (0..100).map(|t| plan.uniform(t, salt::CRASH)).collect();
        // Interleave other queries; answers must not shift.
        for t in 0..100 {
            let _ = plan.chance(t, salt::PANIC, 0.5);
            let _ = plan.pick(t, salt::CRASH_VICTIM, 7);
        }
        let second: Vec<f64> = (0..100).map(|t| plan.uniform(t, salt::CRASH)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn salts_decorrelate() {
        let plan = FaultPlan::new(900, 2);
        assert_ne!(
            plan.uniform(3, salt::DEVICE_DEATH),
            plan.uniform(3, salt::WEAR_OUT)
        );
    }

    #[test]
    fn hosts_decorrelate() {
        let hits_a = (0..1000)
            .filter(|&t| FaultPlan::new(900, 0).chance(t, salt::CRASH, 0.1))
            .count();
        let hits_b = (0..1000)
            .filter(|&t| FaultPlan::new(900, 1).chance(t, salt::CRASH, 0.1))
            .count();
        // Both near 100 expected hits, but not the same ticks.
        assert!((50..200).contains(&hits_a), "{hits_a}");
        assert!((50..200).contains(&hits_b), "{hits_b}");
        let same = (0..1000).all(|t| {
            FaultPlan::new(900, 0).chance(t, salt::CRASH, 0.1)
                == FaultPlan::new(900, 1).chance(t, salt::CRASH, 0.1)
        });
        assert!(!same);
    }

    #[test]
    fn chance_extremes() {
        let plan = FaultPlan::new(1, 1);
        assert!(!plan.chance(0, 0, 0.0));
        assert!(plan.chance(0, 0, 1.1));
        assert_eq!(plan.pick(0, 0, 0), None);
        assert!(plan.pick(0, 0, 3).unwrap() < 3);
    }
}
