//! Workload modulation hooks for scenario engines.
//!
//! A [`WorkloadModulator`] lets an external engine (the `tmo-scenarios`
//! crate) reshape container workloads *over time* without the core
//! simulator knowing anything about scenario formats: diurnal demand
//! waves, flash crowds, slow memory leaks, sidecar file-churn spikes,
//! and container churn storms all reduce to these four questions asked
//! once per container per tick.
//!
//! # Determinism contract
//!
//! Every method must be a **pure function of its arguments** (plus the
//! modulator's immutable construction-time state, e.g. a seed-derived
//! fault plan). The machine may ask in any order and any number of
//! times; answers must not depend on call history, wall-clock time, or
//! ambient entropy. This is the same discipline as
//! [`tmo_faults::FaultPlan`], and it is what keeps a modulated fleet
//! bit-identical across `--jobs N`.
//!
//! A machine with no modulator attached behaves byte-identically to a
//! machine built before this hook existed: the default implementations
//! are exact no-ops and the tick path draws no extra RNG values.

use tmo_sim::{ByteSize, SimDuration, SimTime};

/// Per-tick workload modulation, asked by [`crate::Machine::tick`].
///
/// All methods have neutral defaults, so an implementation overrides
/// only the behaviours its scenario uses.
pub trait WorkloadModulator: std::fmt::Debug + Send {
    /// Multiplier on the container's access intensity at `now`
    /// (composes with the web-admission scale already on the
    /// container). `1.0` is neutral; `3.0` is a flash crowd;
    /// `0.3` is a nighttime trough.
    fn demand_scale(&self, container: usize, now: SimTime) -> f64 {
        let _ = (container, now);
        1.0
    }

    /// Anonymous memory the container leaks per second at `now` —
    /// allocated, never touched again, and only released when the
    /// container is killed. [`ByteSize::ZERO`] is neutral.
    fn leak_bytes_per_sec(&self, container: usize, now: SimTime) -> ByteSize {
        let _ = (container, now);
        ByteSize::ZERO
    }

    /// Write-once file-cache churn per second at `now` (the §5.1
    /// self-extracting binary, or a sidecar-tax spike): pages written
    /// once, never read again, and dropped once evicted.
    /// [`ByteSize::ZERO`] is neutral.
    fn churn_bytes_per_sec(&self, container: usize, now: SimTime) -> ByteSize {
        let _ = (container, now);
        ByteSize::ZERO
    }

    /// If a churn-storm crash fires at `tick`, the index (in
    /// `[0, containers)`) of the container to kill and restart.
    /// Must derive from a pure hash of `(tick, …)` — see
    /// [`tmo_faults::FaultPlan`] — never from stateful RNG.
    fn storm_kill_victim(
        &self,
        tick: u64,
        now: SimTime,
        dt: SimDuration,
        containers: u64,
    ) -> Option<u64> {
        let _ = (tick, now, dt, containers);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A modulator overriding nothing.
    #[derive(Debug)]
    struct NullModulator;

    impl WorkloadModulator for NullModulator {}

    #[test]
    fn null_modulator_is_neutral() {
        let m = NullModulator;
        let now = SimTime::from_secs(5);
        let dt = SimDuration::from_millis(100);
        assert_eq!(m.demand_scale(0, now), 1.0);
        assert_eq!(m.leak_bytes_per_sec(1, now), ByteSize::ZERO);
        assert_eq!(m.churn_bytes_per_sec(2, now), ByteSize::ZERO);
        assert_eq!(m.storm_kill_victim(7, now, dt, 3), None);
    }
}
