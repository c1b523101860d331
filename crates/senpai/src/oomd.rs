//! Userspace out-of-memory killing on `full` pressure (§3.2.4).
//!
//! The paper: "long before the kernel's out-of-memory killer triggers,
//! applications can be functionally out of memory when the lack of it
//! causes delays that prevent the application from meeting its SLO.
//! Userspace out-of-memory killers can monitor `full` metrics and apply
//! killing policies." Meta's open-source *oomd* does exactly this (and
//! is where Senpai ships). This module implements that policy: a
//! container whose `full` memory pressure stays above a threshold for a
//! sustained period is selected for killing.

use std::collections::BTreeMap;

use tmo_sim::SimDuration;

/// Policy parameters for the pressure-based OOM killer.
#[derive(Debug, Clone, PartialEq)]
pub struct OomdConfig {
    /// `full` avg10 threshold (ratio in `[0, 1]`) above which a
    /// container is considered functionally out of memory.
    pub full_threshold: f64,
    /// How long the pressure must be sustained before killing — spikes
    /// (a maintenance job overlapping a peak) should not kill.
    pub sustain: SimDuration,
}

impl Default for OomdConfig {
    fn default() -> Self {
        OomdConfig {
            full_threshold: 0.20,
            sustain: SimDuration::from_secs(10),
        }
    }
}

/// One container's observation for a tick — the full duress picture,
/// not just the pressure number.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OomdSignal {
    /// `full` avg10 from `memory.pressure` (ratio in `[0, 1]`).
    pub full_avg10: f64,
    /// The swap backend is full (or dead): thrashing can no longer be
    /// relieved by offloading, so duress escalates faster.
    pub swap_full: bool,
    /// The pressure sample is stale. A kill is irreversible; it must
    /// never fire on data that may describe a recovered container, so
    /// the sustain timer holds (neither grows nor resets).
    pub stale: bool,
}

/// A kill decision for one container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KillDecision {
    /// Monitored container key.
    pub container: usize,
    /// The `full` pressure observed when the kill triggered.
    pub full_avg10: f64,
    /// How long the pressure had been sustained.
    pub sustained_for: SimDuration,
}

/// The pressure monitor. Feed it every container's `full` avg10 once
/// per tick; it returns kill decisions when the policy trips.
///
/// # Example
///
/// ```
/// use tmo_senpai::oomd::{OomdConfig, OomdMonitor};
/// use tmo_sim::SimDuration;
///
/// let mut oomd = OomdMonitor::new(OomdConfig::default());
/// let tick = SimDuration::from_secs(1);
/// // Nine seconds of critical pressure: not yet.
/// for _ in 0..9 {
///     assert!(oomd.observe(0, 0.5, tick).is_none());
/// }
/// // The tenth second crosses the sustain window.
/// assert!(oomd.observe(0, 0.5, tick).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct OomdMonitor {
    config: OomdConfig,
    sustained: BTreeMap<usize, SimDuration>,
    kills: Vec<KillDecision>,
}

impl OomdMonitor {
    /// Creates a monitor with the given policy.
    pub fn new(config: OomdConfig) -> Self {
        OomdMonitor {
            config,
            sustained: BTreeMap::new(),
            kills: Vec::new(),
        }
    }

    /// The policy in force.
    pub fn config(&self) -> &OomdConfig {
        &self.config
    }

    /// Feeds one container's `full` avg10 for a tick of length `dt`.
    /// Returns a kill decision the moment the sustain window fills; the
    /// container's timer resets afterwards (a restarted workload starts
    /// clean).
    pub fn observe(
        &mut self,
        container: usize,
        full_avg10: f64,
        dt: SimDuration,
    ) -> Option<KillDecision> {
        self.observe_signal(
            container,
            OomdSignal {
                full_avg10,
                ..OomdSignal::default()
            },
            dt,
        )
    }

    /// Feeds one container's full duress signal for a tick of length
    /// `dt`. Semantics beyond [`observe`](Self::observe):
    ///
    /// * `stale` samples freeze the timer: a kill must not fire on (or
    ///   be forgiven by) data that may be out of date;
    /// * `swap_full` halves the effective threshold — with the swap
    ///   backend unusable there is no relief valve, and waiting the
    ///   full window just prolongs the functional outage (§3.2.4).
    pub fn observe_signal(
        &mut self,
        container: usize,
        signal: OomdSignal,
        dt: SimDuration,
    ) -> Option<KillDecision> {
        if signal.stale {
            return None;
        }
        let threshold = if signal.swap_full {
            self.config.full_threshold / 2.0
        } else {
            self.config.full_threshold
        };
        if signal.full_avg10 < threshold {
            self.sustained.insert(container, SimDuration::ZERO);
            return None;
        }
        let acc = self.sustained.entry(container).or_insert(SimDuration::ZERO);
        *acc += dt;
        if *acc >= self.config.sustain {
            let decision = KillDecision {
                container,
                full_avg10: signal.full_avg10,
                sustained_for: *acc,
            };
            *acc = SimDuration::ZERO;
            self.kills.push(decision);
            return Some(decision);
        }
        None
    }

    /// All kills issued so far.
    pub fn kills(&self) -> &[KillDecision] {
        &self.kills
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick() -> SimDuration {
        SimDuration::from_secs(1)
    }

    #[test]
    fn sustained_full_pressure_kills() {
        let mut oomd = OomdMonitor::new(OomdConfig::default());
        for _ in 0..9 {
            assert!(oomd.observe(7, 0.3, tick()).is_none());
        }
        let kill = oomd.observe(7, 0.3, tick()).expect("sustained");
        assert_eq!(kill.container, 7);
        assert_eq!(kill.sustained_for, SimDuration::from_secs(10));
        assert_eq!(oomd.kills().len(), 1);
    }

    #[test]
    fn spikes_below_sustain_window_do_not_kill() {
        let mut oomd = OomdMonitor::new(OomdConfig::default());
        for _ in 0..100 {
            // 5 s of pressure, then relief: the timer resets each time.
            for _ in 0..5 {
                assert!(oomd.observe(0, 0.9, tick()).is_none());
            }
            assert!(oomd.observe(0, 0.0, tick()).is_none());
        }
        assert!(oomd.kills().is_empty());
    }

    #[test]
    fn below_threshold_pressure_never_kills() {
        let mut oomd = OomdMonitor::new(OomdConfig::default());
        for _ in 0..1000 {
            assert!(oomd.observe(0, 0.19, tick()).is_none());
        }
    }

    #[test]
    fn containers_are_tracked_independently() {
        let mut oomd = OomdMonitor::new(OomdConfig::default());
        for _ in 0..9 {
            oomd.observe(0, 0.5, tick());
            oomd.observe(1, 0.0, tick());
        }
        assert!(oomd.observe(0, 0.5, tick()).is_some());
        assert!(oomd.observe(1, 0.5, tick()).is_none());
    }

    #[test]
    fn swap_full_halves_the_kill_threshold() {
        let mut oomd = OomdMonitor::new(OomdConfig::default());
        let duress = OomdSignal {
            full_avg10: 0.15, // below the 0.20 threshold...
            swap_full: true,  // ...but the relief valve is gone
            ..OomdSignal::default()
        };
        for _ in 0..9 {
            assert!(oomd.observe_signal(0, duress, tick()).is_none());
        }
        let kill = oomd.observe_signal(0, duress, tick()).expect("duress");
        assert_eq!(kill.container, 0);
        // Without swap_full the same pressure never kills.
        let calm_swap = OomdSignal {
            swap_full: false,
            ..duress
        };
        for _ in 0..100 {
            assert!(oomd.observe_signal(1, calm_swap, tick()).is_none());
        }
    }

    #[test]
    fn stale_psi_freezes_the_sustain_timer() {
        let mut oomd = OomdMonitor::new(OomdConfig::default());
        let hot = OomdSignal {
            full_avg10: 0.5,
            ..OomdSignal::default()
        };
        let stale = OomdSignal { stale: true, ..hot };
        // 9 s of real duress, then a long telemetry stall: no kill may
        // fire on stale data, but the accumulated window survives.
        for _ in 0..9 {
            assert!(oomd.observe_signal(0, hot, tick()).is_none());
        }
        for _ in 0..60 {
            assert!(oomd.observe_signal(0, stale, tick()).is_none());
        }
        // One fresh sample completes the window.
        assert!(oomd.observe_signal(0, hot, tick()).is_some());
    }

    #[test]
    fn timer_resets_after_a_kill() {
        let mut oomd = OomdMonitor::new(OomdConfig::default());
        for _ in 0..10 {
            oomd.observe(0, 0.5, tick());
        }
        assert_eq!(oomd.kills().len(), 1);
        // The next kill needs a fresh full window.
        for _ in 0..9 {
            assert!(oomd.observe(0, 0.5, tick()).is_none());
        }
        assert!(oomd.observe(0, 0.5, tick()).is_some());
    }
}
