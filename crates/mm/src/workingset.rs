//! Non-resident workingset tracking (§3.4).
//!
//! When a file page is evicted, the kernel stores the cgroup's eviction
//! counter in a *shadow entry* replacing the page. On a later fault the
//! *reuse distance* — evictions that happened in between — tells the
//! kernel whether the page was part of the workingset: a distance
//! smaller than the resident set means the page would have stayed in
//! memory had the cache been left alone, so the fault is a **refault**.
//! Refaults (and swap-ins) feed both memory PSI and the reclaim
//! balancing policy.

/// Per-cgroup eviction clock for shadow entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionClock(u64);

impl EvictionClock {
    /// Creates a clock at zero.
    pub fn new() -> Self {
        EvictionClock::default()
    }

    /// Current counter value.
    pub fn now(&self) -> u64 {
        self.0
    }

    /// Records one eviction, returning the shadow value to store in the
    /// evicted page's slot.
    pub fn record_eviction(&mut self) -> u64 {
        let shadow = self.0;
        self.0 += 1;
        shadow
    }

    /// Reuse distance for a fault on a page evicted at `shadow`.
    pub fn reuse_distance(&self, shadow: u64) -> u64 {
        self.0.saturating_sub(shadow)
    }

    /// Whether a fault with the given shadow is a workingset refault,
    /// judged against the currently resident page count: the page would
    /// still be resident had nothing been evicted in between.
    pub fn is_refault(&self, shadow: u64, resident_pages: u64) -> bool {
        self.reuse_distance(shadow) <= resident_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_clock_monotonic() {
        let mut clock = EvictionClock::new();
        let s0 = clock.record_eviction();
        let s1 = clock.record_eviction();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(clock.now(), 2);
    }

    #[test]
    fn reuse_distance_counts_interleaved_evictions() {
        let mut clock = EvictionClock::new();
        let shadow = clock.record_eviction();
        for _ in 0..9 {
            clock.record_eviction();
        }
        assert_eq!(clock.reuse_distance(shadow), 10);
    }

    #[test]
    fn refault_classification_against_resident_size() {
        let mut clock = EvictionClock::new();
        let shadow = clock.record_eviction();
        for _ in 0..99 {
            clock.record_eviction();
        }
        // Distance 100: refault iff at least 100 pages are resident.
        assert!(clock.is_refault(shadow, 100));
        assert!(!clock.is_refault(shadow, 99));
    }

    #[test]
    fn immediate_refault_always_qualifies() {
        let mut clock = EvictionClock::new();
        let shadow = clock.record_eviction();
        assert!(clock.is_refault(shadow, 1));
    }
}
