//! Small numeric helpers: medians, tail percentiles that refuse thin
//! tails, an order-sensitive output digest, and the process's peak
//! resident memory.

use std::fmt;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, the value is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// A percentile the sample cannot support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThinTail {
    /// Samples available.
    pub samples: usize,
    /// Samples that would lie beyond the requested percentile.
    pub beyond: usize,
}

impl fmt::Display for ThinTail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "only {} of {} samples beyond the percentile (need {MIN_BEYOND})",
            self.beyond, self.samples
        )
    }
}

/// Nearest-rank `q`-quantile of an ascending slice, refused when fewer
/// than [`MIN_BEYOND`] samples lie above the chosen rank.
pub fn percentile(sorted: &[u32], q: f64) -> Result<u32, ThinTail> {
    assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(ThinTail { samples: n, beyond });
    }
    Ok(sorted[rank - 1])
}

/// Median of a non-empty list (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// FNV-1a over 64-bit words: any changed word, or any reordering,
/// changes the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word.
    pub fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a float by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a string, length first.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(word));
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
    }
}
