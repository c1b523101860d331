//! Application profiles.

use tmo_sim::ByteSize;

use crate::temperature::TemperatureClass;

/// A complete workload description: everything the machine layer needs
/// to instantiate a container that behaves like one of the paper's
/// applications.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Application name as used in the paper's figures.
    pub name: String,
    /// Total memory footprint.
    pub mem_total: ByteSize,
    /// Fraction of the footprint that is anonymous memory (Figure 4);
    /// the rest is file-backed.
    pub anon_fraction: f64,
    /// Mean compression ratio of the anonymous memory (4.0 for Web,
    /// 1.3–1.4 for ML/Ads prediction models, 3.0 fleet average).
    pub compress_ratio: f64,
    /// Temperature classes covering the footprint (applies to both anon
    /// and file pages).
    pub classes: Vec<TemperatureClass>,
    /// How many worker tasks the container runs (PSI `full` depends on
    /// internal concurrency).
    pub tasks: u32,
}

impl AppProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if `anon_fraction` is outside `[0, 1]`, the compression
    /// ratio is below 1, there are no classes, or `tasks` is zero.
    pub fn new(
        name: impl Into<String>,
        mem_total: ByteSize,
        anon_fraction: f64,
        compress_ratio: f64,
        classes: Vec<TemperatureClass>,
        tasks: u32,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&anon_fraction),
            "anon fraction {anon_fraction} out of [0, 1]"
        );
        assert!(
            compress_ratio >= 1.0,
            "compression ratio {compress_ratio} < 1"
        );
        assert!(!classes.is_empty(), "profile needs temperature classes");
        assert!(tasks > 0, "profile needs at least one task");
        AppProfile {
            name: name.into(),
            mem_total,
            anon_fraction,
            compress_ratio,
            classes,
            tasks,
        }
    }

    /// The fraction of the footprint cold past 5 minutes: pages in
    /// classes whose touch probability within 5 minutes is under 50%.
    pub fn cold_fraction(&self) -> f64 {
        let five_min = tmo_sim::SimDuration::from_mins(5);
        self.classes
            .iter()
            .filter(|c| c.touch_probability(five_min) < 0.5)
            .map(|c| c.fraction)
            .sum()
    }

    /// Anonymous bytes of the footprint.
    pub fn anon_bytes(&self) -> ByteSize {
        self.mem_total.mul_f64(self.anon_fraction)
    }

    /// Returns a copy scaled to a different total footprint (class
    /// fractions are relative, so only `mem_total` changes).
    pub fn with_mem_total(&self, mem_total: ByteSize) -> AppProfile {
        AppProfile {
            mem_total,
            ..self.clone()
        }
    }
}

impl std::fmt::Display for AppProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}, {:.0}% anon, {:.1}x compressible, {:.0}% cold)",
            self.name,
            self.mem_total,
            self.anon_fraction * 100.0,
            self.compress_ratio,
            self.cold_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temperature::coldness_classes;
    use tmo_sim::SimDuration;

    fn profile() -> AppProfile {
        AppProfile::new(
            "test",
            ByteSize::from_mib(256),
            0.6,
            3.0,
            coldness_classes(0.5, 0.1, 0.1, 0.3),
            4,
        )
    }

    #[test]
    fn anon_file_split() {
        let p = profile();
        assert_eq!(p.anon_bytes(), ByteSize::from_mib(256).mul_f64(0.6));
    }

    #[test]
    fn cold_fraction_counts_cold_classes() {
        let p = profile();
        assert!((p.cold_fraction() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn with_mem_total_rescales_only_size() {
        let p = profile().with_mem_total(ByteSize::from_gib(1));
        assert_eq!(p.mem_total, ByteSize::from_gib(1));
        assert_eq!(p.classes, profile().classes);
    }

    #[test]
    fn display_is_informative() {
        let txt = profile().to_string();
        assert!(txt.contains("test"));
        assert!(txt.contains("60% anon"));
    }

    #[test]
    #[should_panic(expected = "anon fraction")]
    fn invalid_anon_fraction_panics() {
        let _ = AppProfile::new(
            "bad",
            ByteSize::from_mib(1),
            1.5,
            3.0,
            vec![TemperatureClass::new(1.0, SimDuration::from_secs(1))],
            1,
        );
    }
}
