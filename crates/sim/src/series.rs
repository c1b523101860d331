//! Metric time series.
//!
//! Experiments record per-tick signals (RPS, resident memory, PSI, swap
//! rate, ...) into named [`Series`] collected by a [`Recorder`]. The
//! experiment harness then prints the same rows/series the paper's
//! figures plot, and can export them as CSV.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::SimTime;

/// One `(time, value)` sample of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulated time of the observation, in seconds since run start.
    pub time_secs: f64,
    /// Observed value.
    pub value: f64,
}

/// A named sequence of samples.
///
/// # Example
///
/// ```
/// use tmo_sim::{Series, SimTime};
///
/// let mut s = Series::new("rps");
/// s.push(SimTime::from_secs(1), 650.0);
/// s.push(SimTime::from_secs(2), 640.0);
/// assert_eq!(s.len(), 2);
/// assert!((s.mean() - 645.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Series {
    name: String,
    samples: Vec<Sample>,
}

impl Series {
    /// Creates an empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample at `time`.
    pub fn push(&mut self, time: SimTime, value: f64) {
        self.samples.push(Sample {
            time_secs: time.as_secs_f64(),
            value,
        });
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples in insertion (time) order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Iterator over the values only.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().map(|s| s.value)
    }

    /// The final value, or `None` when empty.
    pub fn last(&self) -> Option<f64> {
        self.samples.last().map(|s| s.value)
    }

    /// Arithmetic mean of the values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.values().sum::<f64>() / self.samples.len() as f64
    }

    /// Minimum value (0.0 when empty).
    pub fn min(&self) -> f64 {
        self.values()
            .fold(f64::INFINITY, f64::min)
            .min(f64::INFINITY)
            .pipe_finite()
    }

    /// Maximum value (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.values()
            .fold(f64::NEG_INFINITY, f64::max)
            .pipe_finite()
    }

    /// The `q`-quantile (0.0..=1.0) by nearest-rank on sorted values;
    /// returns 0.0 when empty.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut vals: Vec<f64> = self.values().collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let idx = ((vals.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        vals[idx]
    }

    /// Mean of the values whose sample time lies in `[from_secs, to_secs)`.
    pub fn mean_between(&self, from_secs: f64, to_secs: f64) -> f64 {
        let window: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.time_secs >= from_secs && s.time_secs < to_secs)
            .map(|s| s.value)
            .collect();
        if window.is_empty() {
            0.0
        } else {
            window.iter().sum::<f64>() / window.len() as f64
        }
    }

    /// Downsamples to at most `n` evenly spaced samples (for printing).
    pub fn downsample(&self, n: usize) -> Vec<Sample> {
        if n == 0 || self.samples.is_empty() {
            return Vec::new();
        }
        if self.samples.len() <= n {
            return self.samples.clone();
        }
        let step = self.samples.len() as f64 / n as f64;
        (0..n)
            .map(|i| self.samples[(i as f64 * step) as usize])
            .collect()
    }
}

trait PipeFinite {
    fn pipe_finite(self) -> f64;
}

impl PipeFinite for f64 {
    fn pipe_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

/// Stable handle to one series inside a [`Recorder`].
///
/// Hot loops resolve a name to a `SeriesId` once and then append via
/// [`Recorder::record_id`], skipping the per-sample name lookup and the
/// `String` allocation `record` pays on every call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// A collection of named series recorded during one simulation run.
///
/// Series live in insertion-ordered slots addressed by [`SeriesId`]; a
/// name index keeps every observable surface (`series`, `iter`,
/// `names`, `to_csv`) sorted by name exactly as before, so creation
/// order never leaks into output.
///
/// # Example
///
/// ```
/// use tmo_sim::{Recorder, SimTime};
///
/// let mut rec = Recorder::new();
/// rec.record("psi.some", SimTime::from_secs(6), 0.08);
/// let id = rec.series_id("psi.some");
/// rec.record_id(id, SimTime::from_secs(12), 0.10);
/// assert_eq!(rec.series("psi.some").expect("recorded").len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    index: BTreeMap<String, usize>,
    slots: Vec<Series>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Resolves the named series to a stable [`SeriesId`], creating an
    /// empty series on first use.
    pub fn series_id(&mut self, name: &str) -> SeriesId {
        if let Some(&slot) = self.index.get(name) {
            return SeriesId(slot);
        }
        let slot = self.slots.len();
        self.slots.push(Series::new(name));
        self.index.insert(name.to_string(), slot);
        SeriesId(slot)
    }

    /// Appends a sample to the series behind `id`.
    pub fn record_id(&mut self, id: SeriesId, time: SimTime, value: f64) {
        self.slots[id.0].push(time, value);
    }

    /// Appends a sample to the named series, creating it on first use.
    pub fn record(&mut self, name: &str, time: SimTime, value: f64) {
        let id = self.series_id(name);
        self.record_id(id, time, value);
    }

    /// Looks up a series by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.index.get(name).map(|&slot| &self.slots[slot])
    }

    /// All series, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = &Series> {
        self.index.values().map(|&slot| &self.slots[slot])
    }

    /// Names of all recorded series, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.index.keys().map(String::as_str).collect()
    }

    /// Renders all series as CSV (`series,time_secs,value` rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,time_secs,value\n");
        for s in self.iter() {
            for sample in s.samples() {
                out.push_str(&format!(
                    "{},{:.3},{:.6}\n",
                    s.name(),
                    sample.time_secs,
                    sample.value
                ));
            }
        }
        out
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={} mean={:.4} min={:.4} max={:.4}",
            self.name,
            self.len(),
            self.mean(),
            self.min(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn series_stats() {
        let mut s = Series::new("x");
        for (i, v) in [1.0, 2.0, 3.0, 4.0].into_iter().enumerate() {
            s.push(t(i as u64), v);
        }
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.last(), Some(4.0));
    }

    #[test]
    fn empty_series_is_safe() {
        let s = Series::new("empty");
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.last(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut s = Series::new("q");
        for v in 1..=100 {
            s.push(t(v), v as f64);
        }
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert!((s.quantile(0.5) - 50.0).abs() <= 1.0);
        assert!((s.quantile(0.9) - 90.0).abs() <= 1.0);
    }

    #[test]
    fn mean_between_windows() {
        let mut s = Series::new("w");
        for i in 0..10 {
            s.push(t(i), i as f64);
        }
        assert_eq!(s.mean_between(0.0, 5.0), 2.0);
        assert_eq!(s.mean_between(5.0, 10.0), 7.0);
        assert_eq!(s.mean_between(100.0, 200.0), 0.0);
    }

    #[test]
    fn downsample_bounds() {
        let mut s = Series::new("d");
        for i in 0..1000 {
            s.push(t(i), i as f64);
        }
        assert_eq!(s.downsample(10).len(), 10);
        assert_eq!(s.downsample(0).len(), 0);
        assert_eq!(s.downsample(5000).len(), 1000);
    }

    #[test]
    fn recorder_creates_and_appends() {
        let mut rec = Recorder::new();
        rec.record("a", t(1), 1.0);
        rec.record("a", t(2), 2.0);
        rec.record("b", t(1), 9.0);
        assert_eq!(rec.names(), vec!["a", "b"]);
        assert_eq!(rec.series("a").expect("a").len(), 2);
        assert!(rec.series("missing").is_none());
    }

    #[test]
    fn recorder_ids_alias_names_and_sort_observably() {
        let mut rec = Recorder::new();
        // Create out of name order so slot order != name order.
        let zb = rec.series_id("z.b");
        let aa = rec.series_id("a.a");
        rec.record_id(zb, t(1), 1.0);
        rec.record_id(aa, t(1), 2.0);
        rec.record("z.b", t(2), 3.0);
        assert_eq!(rec.series_id("z.b"), zb);
        assert_eq!(rec.names(), vec!["a.a", "z.b"]);
        let ordered: Vec<&str> = rec.iter().map(Series::name).collect();
        assert_eq!(ordered, vec!["a.a", "z.b"]);
        assert_eq!(rec.series("z.b").expect("z.b").len(), 2);
    }

    #[test]
    fn csv_export_shape() {
        let mut rec = Recorder::new();
        rec.record("m", t(1), 0.5);
        let csv = rec.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,time_secs,value");
        assert!(lines[1].starts_with("m,1.000,0.5"));
    }
}
