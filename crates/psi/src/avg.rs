//! Exponential running averages over pressure ratios.
//!
//! The kernel folds raw stall time into three exponential moving
//! averages with 10 s, 60 s, and 300 s half-life-style windows, sampled
//! every 2 s. [`AvgSet`] holds one [`Ewma`] per window, which supports
//! irregular sampling periods and reduces to the kernel's fixed-point
//! update when `dt` = 2 s.

use tmo_sim::{Ewma, SimDuration};

/// The standard PSI averaging windows.
pub const WINDOW_10S: SimDuration = SimDuration::from_secs(10);
/// 60-second averaging window.
pub const WINDOW_60S: SimDuration = SimDuration::from_secs(60);
/// 300-second averaging window.
pub const WINDOW_300S: SimDuration = SimDuration::from_secs(300);

/// The triple of standard PSI averages (avg10 / avg60 / avg300).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvgSet {
    /// 10-second average.
    pub avg10: Ewma,
    /// 60-second average.
    pub avg60: Ewma,
    /// 300-second average.
    pub avg300: Ewma,
}

impl AvgSet {
    /// Creates a zeroed set of the three standard averages.
    pub fn new() -> Self {
        AvgSet {
            avg10: Ewma::new(WINDOW_10S),
            avg60: Ewma::new(WINDOW_60S),
            avg300: Ewma::new(WINDOW_300S),
        }
    }

    /// Folds the ratio `r` (clamped to `[0, 1]`) measured over `dt` into
    /// all three averages.
    pub fn update(&mut self, r: f64, dt: SimDuration) {
        let r = r.clamp(0.0, 1.0);
        self.avg10.update(r, dt);
        self.avg60.update(r, dt);
        self.avg300.update(r, dt);
    }
}

impl Default for AvgSet {
    fn default() -> Self {
        AvgSet::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shorter_window_reacts_faster() {
        let mut set = AvgSet::new();
        for _ in 0..5 {
            set.update(1.0, SimDuration::from_secs(2));
        }
        assert!(set.avg10.value() > set.avg60.value());
        assert!(set.avg60.value() > set.avg300.value());
    }

    #[test]
    fn clamps_out_of_range_inputs() {
        let mut set = AvgSet::new();
        set.update(5.0, SimDuration::from_secs(100));
        assert!(set.avg10.value() <= 1.0);
        let mut set = AvgSet::new();
        set.update(-5.0, SimDuration::from_secs(100));
        assert!(set.avg10.value() >= 0.0);
    }

    #[test]
    fn zero_dt_is_noop() {
        let mut set = AvgSet::new();
        set.update(1.0, SimDuration::ZERO);
        assert_eq!(set, AvgSet::new());
    }
}
