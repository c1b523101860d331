//! The scenario event vocabulary: what can happen, to whom, and when.
//!
//! A scenario is a list of [`ScenarioEvent`]s. Each pairs a behaviour
//! ([`EventKind`]) with a [`Target`] (one container or all of them) and
//! a [`Window`] of simulated time in which it is active. Events compose
//! freely: overlapping windows stack (demand multipliers multiply,
//! leak/churn rates add), and a zero-length window is a legal no-op —
//! the edge cases are pinned by this crate's property tests.

use tmo_sim::{ByteSize, SimDuration, SimTime};

/// A half-open interval of simulated time: `[start, start + duration)`.
///
/// Half-open means a zero-length window contains nothing at all — it
/// can be used to disable an event without deleting it from a script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// When the event switches on.
    pub start: SimTime,
    /// How long it stays on.
    pub duration: SimDuration,
}

impl Window {
    /// A window covering `[start, start + duration)`.
    pub fn new(start: SimTime, duration: SimDuration) -> Self {
        Window { start, duration }
    }

    /// A window covering the whole run, whatever its length.
    pub fn always() -> Self {
        Window {
            start: SimTime::ZERO,
            duration: SimDuration::from_hours(24 * 365),
        }
    }

    /// First instant *after* the window (saturating).
    pub fn end(&self) -> SimTime {
        self.start.saturating_add(self.duration)
    }

    /// Whether the window has zero length.
    pub fn is_empty(&self) -> bool {
        self.duration == SimDuration::ZERO
    }

    /// Whether `now` falls inside the window. A zero-length window
    /// contains no instant, not even its own start.
    pub fn contains(&self, now: SimTime) -> bool {
        !self.is_empty() && now >= self.start && now < self.end()
    }

    /// Whether two windows share at least one instant. Zero-length
    /// windows overlap nothing.
    pub fn overlaps(&self, other: &Window) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.start < other.end()
            && other.start < self.end()
    }
}

/// Which container(s) an event applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// The container at this index (in machine insertion order).
    Container(usize),
    /// Every container on the host.
    All,
}

impl Target {
    /// Whether the event applies to container index `ci`.
    pub fn hits(&self, ci: usize) -> bool {
        match self {
            Target::Container(c) => *c == ci,
            Target::All => true,
        }
    }
}

/// What a scenario event does while its window is open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Multiply the target's access/traffic demand by `magnitude`
    /// (`3.0` is a flash crowd; values in `(0, 1)` model a lull).
    /// Overlapping flash crowds multiply.
    FlashCrowd {
        /// Demand multiplier while active.
        magnitude: f64,
    },
    /// Scale demand with a time-of-day wave: full demand at the peak,
    /// `trough` of it at the bottom, one full cycle per `period`.
    Diurnal {
        /// Demand fraction at the bottom of the wave, in `(0, 1]`.
        trough: f64,
        /// Length of one full cycle. A zero period is a no-op.
        period: SimDuration,
    },
    /// Leak anonymous memory at `rate` per second: allocated, never
    /// touched again, released only when the container is killed.
    /// Overlapping leaks add.
    MemoryLeak {
        /// Leak rate in bytes per second.
        rate: ByteSize,
    },
    /// Write-once file-cache churn (the sidecar-tax spike of §5.1) at
    /// `churn` bytes per second. Overlapping spikes add.
    SidecarSpike {
        /// Churn in bytes per second.
        churn: ByteSize,
    },
    /// Kill-and-restart crashes at this per-minute rate while active
    /// (a deployment storm). `Target::All` picks the victim by hash;
    /// a container target always hits that container.
    ChurnStorm {
        /// Expected crashes per minute while the window is open.
        crashes_per_min: f64,
    },
    /// A square-wave demand burst that is *correlated across hosts*: the
    /// window is cut into `bursts` equal slices and demand is multiplied
    /// by `magnitude` during the first half of every slice. Unlike
    /// [`EventKind::ChurnStorm`], nothing here consults the host seed —
    /// the wave is a pure function of absolute simulated time, so every
    /// host in a fleet surges and relaxes in lockstep (the "everyone
    /// retries at once" shape real incidents produce). `bursts == 0` is
    /// inert.
    CorrelatedBurst {
        /// Demand multiplier during the on-phase of each burst.
        magnitude: f64,
        /// Number of on/off cycles the window is divided into.
        bursts: u32,
    },
    /// A cascading failure: one container is killed at the window
    /// start, the next `stagger` later, and so on while the window is
    /// open — the k-th kill lands at `start + k * stagger`. Victim
    /// selection is round-robin from the target (no hash draws), so the
    /// cascade is identical on every host: the correlated-outage
    /// counterpart to the seed-diverse [`EventKind::ChurnStorm`]. A
    /// zero `stagger` collapses the cascade to a single kill at the
    /// window start.
    CascadeKill {
        /// Delay between consecutive kills in the cascade.
        stagger: SimDuration,
    },
}

/// One scripted behaviour: kind + target + active window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioEvent {
    /// Who it happens to.
    pub target: Target,
    /// When it is active.
    pub window: Window,
    /// What happens.
    pub kind: EventKind,
}

impl ScenarioEvent {
    /// Creates an event.
    pub fn new(target: Target, window: Window, kind: EventKind) -> Self {
        ScenarioEvent {
            target,
            window,
            kind,
        }
    }

    /// Whether the event is active for container `ci` at `now`.
    pub fn active_for(&self, ci: usize, now: SimTime) -> bool {
        self.target.hits(ci) && self.window.contains(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_open_window_semantics() {
        let w = Window::new(SimTime::from_secs(10), SimDuration::from_secs(5));
        assert!(!w.contains(SimTime::from_secs(9)));
        assert!(w.contains(SimTime::from_secs(10)));
        assert!(w.contains(SimTime::from_secs(14)));
        assert!(!w.contains(SimTime::from_secs(15)));
        assert_eq!(w.end(), SimTime::from_secs(15));
    }

    #[test]
    fn zero_length_window_contains_nothing() {
        let w = Window::new(SimTime::from_secs(10), SimDuration::ZERO);
        assert!(w.is_empty());
        assert!(!w.contains(SimTime::from_secs(10)));
        assert!(!w.overlaps(&Window::always()));
    }

    #[test]
    fn target_hits() {
        assert!(Target::All.hits(7));
        assert!(Target::Container(3).hits(3));
        assert!(!Target::Container(3).hits(4));
    }
}
