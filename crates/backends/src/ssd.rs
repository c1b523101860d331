//! NVMe SSD device model.
//!
//! An [`SsdDevice`] serves both the swap partition and the filesystem in
//! a TMO machine. Access latency is log-normal (heavy-tailed, as
//! empirical SSD latency distributions are), inflated by the congestion
//! model when offered IOPS approach capacity. Writes accumulate against
//! a pTBW endurance budget — the paper's §4.5 write-regulation mechanism
//! reads these counters.

use tmo_sim::{ByteSize, DetRng, RateCounter, SimDuration};

use crate::queue::CongestionModel;
use crate::traits::{BackendKind, BackendStats, DeviceFault, IoKind, OffloadBackend, StoreOutcome};

/// Quantile factor: p99 of a log-normal is `median * exp(2.326 * sigma)`.
const Z99: f64 = 2.326;

/// EWMA window for the write-rate estimate used by endurance regulation.
const WRITE_RATE_WINDOW: SimDuration = SimDuration::from_secs(10);

/// Cap on the write-amplification factor at full utilisation.
const WA_CAP: f64 = 8.0;

/// Static characteristics of an SSD device.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdSpec {
    /// Device name (e.g. `"ssd-C"`).
    pub name: String,
    /// Usable capacity.
    pub capacity: ByteSize,
    /// p99 read latency of a 4 KiB access on an idle device.
    pub read_p99: SimDuration,
    /// p99 write latency of a 4 KiB access on an idle device.
    pub write_p99: SimDuration,
    /// Log-normal shape parameter of the latency distribution.
    pub latency_sigma: f64,
    /// Read IOPS capacity.
    pub read_iops: f64,
    /// Write IOPS capacity.
    pub write_iops: f64,
    /// Endurance budget in petabytes written (pTBW).
    pub endurance_pbw: f64,
    /// Over-provisioning fraction reserved for garbage collection
    /// (typical enterprise drives: ~7–28%).
    pub op_fraction: f64,
}

impl SsdSpec {
    /// The median latency consistent with the configured p99 and sigma.
    fn median(&self, kind: IoKind) -> SimDuration {
        let p99 = match kind {
            IoKind::Read => self.read_p99,
            IoKind::Write => self.write_p99,
        };
        SimDuration::from_secs_f64(p99.as_secs_f64() / (Z99 * self.latency_sigma).exp())
    }
}

/// A simulated NVMe SSD.
///
/// # Example
///
/// ```
/// use tmo_backends::{IoKind, OffloadBackend, SsdDevice};
/// use tmo_backends::ssd::SsdSpec;
/// use tmo_sim::{ByteSize, DetRng, SimDuration};
///
/// let spec = SsdSpec {
///     name: "ssd-test".into(),
///     capacity: ByteSize::from_gib(1),
///     read_p99: SimDuration::from_micros(1000),
///     write_p99: SimDuration::from_micros(1000),
///     latency_sigma: 0.6,
///     read_iops: 100_000.0,
///     write_iops: 30_000.0,
///     endurance_pbw: 4.0,
///     op_fraction: 0.12,
/// };
/// let mut ssd = SsdDevice::new(spec);
/// let mut rng = DetRng::seed_from_u64(3);
/// let stored = ssd
///     .store(ByteSize::from_kib(4), 3.0, &mut rng)
///     .expect("fits");
/// // SSD swap stores whole pages, compression ratio is irrelevant:
/// assert_eq!(stored.stored_bytes, ByteSize::from_kib(4));
/// let fault = ssd.load(stored.token, &mut rng).expect("present");
/// assert!(fault.as_micros() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SsdDevice {
    spec: SsdSpec,
    stored: crate::slab::TokenSlab<ByteSize>,
    next_token: u64,
    read_queue: CongestionModel,
    write_queue: CongestionModel,
    stats: BackendStats,
    /// Host bytes written, smoothed into bytes/second.
    write_rate: RateCounter,
    /// Media bytes physically written (host bytes × write amplification),
    /// the quantity that actually consumes endurance.
    media_bytes_written: f64,
    /// Permanent device death: stored data lost, all I/O fails.
    dead: bool,
    /// Endurance exhausted: the device is read-only.
    worn_out: bool,
}

impl SsdDevice {
    /// Creates a device from its spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec's IOPS capacities are non-positive (via
    /// [`CongestionModel::new`]).
    pub fn new(spec: SsdSpec) -> Self {
        let read_queue = CongestionModel::new(spec.read_iops);
        let write_queue = CongestionModel::new(spec.write_iops);
        SsdDevice {
            spec,
            stored: crate::slab::TokenSlab::new(),
            next_token: 0,
            read_queue,
            write_queue,
            stats: BackendStats::default(),
            write_rate: RateCounter::new(WRITE_RATE_WINDOW),
            media_bytes_written: 0.0,
            dead: false,
            worn_out: false,
        }
    }

    /// The device spec.
    pub fn spec(&self) -> &SsdSpec {
        &self.spec
    }

    /// Fraction of the endurance budget consumed so far, in `[0, ∞)`.
    /// Counts *media* writes: host writes inflated by the current write
    /// amplification.
    pub fn endurance_consumed(&self) -> f64 {
        let budget_bytes = self.spec.endurance_pbw * 1e15;
        self.media_bytes_written / budget_bytes
    }

    /// Current write-amplification factor from the garbage-collection
    /// model: an empty drive writes at WA ≈ 1; as logical utilisation
    /// eats into the over-provisioned space, GC must relocate ever more
    /// live data per erase block. We use the standard greedy-GC
    /// approximation `WA = 1 / (1 - u_eff)` with
    /// `u_eff = utilisation × (1 − op)`, capped.
    pub fn write_amplification(&self) -> f64 {
        let utilization =
            self.stats.bytes_stored.as_u64() as f64 / self.spec.capacity.as_u64().max(1) as f64;
        let u_eff = utilization * (1.0 - self.spec.op_fraction);
        (1.0 / (1.0 - u_eff.min(0.99))).min(WA_CAP)
    }

    /// Current read-side latency inflation from congestion.
    pub fn read_inflation(&self) -> f64 {
        self.read_queue.inflation()
    }

    fn draw_latency(&mut self, kind: IoKind, rng: &mut DetRng) -> SimDuration {
        let median = self.spec.median(kind).as_secs_f64();
        let base = rng.log_normal(median, self.spec.latency_sigma);
        let inflation = match kind {
            IoKind::Read => self.read_queue.inflation(),
            IoKind::Write => self.write_queue.inflation(),
        };
        SimDuration::from_secs_f64(base * inflation)
    }
}

impl OffloadBackend for SsdDevice {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Ssd
    }

    fn access(&mut self, kind: IoKind, bytes: ByteSize, rng: &mut DetRng) -> SimDuration {
        match kind {
            IoKind::Read => {
                self.read_queue.on_arrival();
                self.stats.reads += 1;
                self.stats.bytes_read += bytes;
                self.draw_latency(kind, rng)
            }
            IoKind::Write => {
                self.write_queue.on_arrival();
                self.stats.writes += 1;
                self.stats.bytes_written += bytes;
                self.write_rate.add(bytes.as_u64());
                // WA depends only on bytes_stored, which this access does
                // not change, so one computation serves both the media
                // accounting and the GC latency penalty below.
                let wa = self.write_amplification();
                self.media_bytes_written += bytes.as_u64() as f64 * wa;
                let base = self.draw_latency(kind, rng);
                // GC competes with host writes: latency grows with WA.
                base.mul_f64(1.0 + (wa - 1.0) * 0.5)
            }
        }
    }

    fn store(
        &mut self,
        page_bytes: ByteSize,
        _compress_ratio: f64,
        rng: &mut DetRng,
    ) -> Option<StoreOutcome> {
        if self.dead || self.worn_out || self.available() < page_bytes {
            return None;
        }
        // Page-out is asynchronous write-behind: the write costs device
        // endurance and bandwidth but does not stall the reclaimer.
        let _ = self.access(IoKind::Write, page_bytes, rng);
        let token = self.next_token;
        self.next_token += 1;
        self.stored.insert(token, page_bytes);
        self.stats.pages_stored += 1;
        self.stats.bytes_stored += page_bytes;
        Some(StoreOutcome {
            token,
            stored_bytes: page_bytes,
            store_latency: SimDuration::ZERO,
        })
    }

    fn load(&mut self, token: u64, rng: &mut DetRng) -> Option<SimDuration> {
        if self.dead {
            return None;
        }
        let bytes = self.stored.remove(token)?;
        self.stats.pages_stored -= 1;
        self.stats.bytes_stored -= bytes;
        Some(self.access(IoKind::Read, bytes, rng))
    }

    fn discard(&mut self, token: u64) -> bool {
        match self.stored.remove(token) {
            Some(bytes) => {
                self.stats.pages_stored -= 1;
                self.stats.bytes_stored -= bytes;
                true
            }
            None => false,
        }
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn capacity(&self) -> ByteSize {
        self.spec.capacity
    }

    fn tick(&mut self, dt: SimDuration) {
        self.read_queue.tick(dt);
        self.write_queue.tick(dt);
        self.write_rate.tick(dt);
    }

    /// Estimated recent write rate in MB/s (decimal megabytes, matching
    /// the paper's "1 MB/s" regulation threshold).
    fn write_rate_mbps(&self) -> f64 {
        self.write_rate.rate() / 1e6
    }

    fn inject(&mut self, fault: DeviceFault) {
        match fault {
            DeviceFault::Die => {
                self.dead = true;
                self.stored.clear();
                self.stats.pages_stored = 0;
                self.stats.bytes_stored = ByteSize::ZERO;
            }
            DeviceFault::WearOut => {
                // Burn the whole pTBW budget: the device goes read-only.
                self.worn_out = true;
                self.media_bytes_written =
                    self.media_bytes_written.max(self.spec.endurance_pbw * 1e15);
            }
            DeviceFault::ExhaustPool => self.worn_out = true,
        }
        self.stats.faults_injected += 1;
    }

    fn is_dead(&self) -> bool {
        self.dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_spec() -> SsdSpec {
        SsdSpec {
            name: "ssd-test".into(),
            capacity: ByteSize::from_mib(1),
            read_p99: SimDuration::from_micros(1000),
            write_p99: SimDuration::from_micros(2000),
            latency_sigma: 0.6,
            read_iops: 100_000.0,
            write_iops: 30_000.0,
            endurance_pbw: 0.001, // 1 TB budget for the endurance test
            op_fraction: 0.12,
        }
    }

    #[test]
    fn store_load_round_trip() {
        let mut ssd = SsdDevice::new(test_spec());
        let mut rng = DetRng::seed_from_u64(1);
        let page = ByteSize::from_kib(4);
        let out = ssd.store(page, 4.0, &mut rng).expect("fits");
        assert_eq!(out.stored_bytes, page);
        assert_eq!(out.store_latency, SimDuration::ZERO);
        assert_eq!(ssd.stats().pages_stored, 1);
        let lat = ssd.load(out.token, &mut rng).expect("present");
        assert!(lat > SimDuration::ZERO);
        assert_eq!(ssd.stats().pages_stored, 0);
        assert_eq!(ssd.stats().bytes_stored, ByteSize::ZERO);
        assert!(ssd.load(out.token, &mut rng).is_none());
    }

    #[test]
    fn store_rejects_when_full() {
        let mut spec = test_spec();
        spec.capacity = ByteSize::from_kib(8);
        let mut ssd = SsdDevice::new(spec);
        let mut rng = DetRng::seed_from_u64(2);
        let page = ByteSize::from_kib(4);
        assert!(ssd.store(page, 1.0, &mut rng).is_some());
        assert!(ssd.store(page, 1.0, &mut rng).is_some());
        assert!(ssd.store(page, 1.0, &mut rng).is_none());
    }

    #[test]
    fn discard_frees_capacity() {
        let mut ssd = SsdDevice::new(test_spec());
        let mut rng = DetRng::seed_from_u64(3);
        let out = ssd
            .store(ByteSize::from_kib(4), 1.0, &mut rng)
            .expect("fits");
        assert!(ssd.discard(out.token));
        assert!(!ssd.discard(out.token));
        assert_eq!(ssd.available(), ssd.capacity());
    }

    #[test]
    fn p99_latency_matches_spec_on_idle_device() {
        let mut ssd = SsdDevice::new(test_spec());
        let mut rng = DetRng::seed_from_u64(4);
        let mut lats: Vec<f64> = (0..20_000)
            .map(|_| {
                ssd.access(IoKind::Read, ByteSize::from_kib(4), &mut rng)
                    .as_secs_f64()
            })
            .collect();
        // Keep the congestion model idle by never ticking arrivals in.
        lats.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let p99 = lats[(lats.len() as f64 * 0.99) as usize];
        let spec_p99 = 1000e-6;
        assert!(
            (p99 - spec_p99).abs() / spec_p99 < 0.15,
            "p99 {p99} vs spec {spec_p99}"
        );
    }

    #[test]
    fn reads_are_faster_than_writes_per_spec() {
        let mut ssd = SsdDevice::new(test_spec());
        let mut rng = DetRng::seed_from_u64(5);
        let n = 5000;
        let read_mean: f64 = (0..n)
            .map(|_| {
                ssd.access(IoKind::Read, ByteSize::from_kib(4), &mut rng)
                    .as_secs_f64()
            })
            .sum::<f64>()
            / n as f64;
        let write_mean: f64 = (0..n)
            .map(|_| {
                ssd.access(IoKind::Write, ByteSize::from_kib(4), &mut rng)
                    .as_secs_f64()
            })
            .sum::<f64>()
            / n as f64;
        assert!(write_mean > read_mean);
    }

    #[test]
    fn endurance_accumulates_with_writes() {
        let mut ssd = SsdDevice::new(test_spec());
        let mut rng = DetRng::seed_from_u64(6);
        assert_eq!(ssd.endurance_consumed(), 0.0);
        for _ in 0..1000 {
            ssd.access(IoKind::Write, ByteSize::from_mib(1), &mut rng);
        }
        // 1000 MiB against a 1 TB (decimal) budget ~ 0.105%.
        let consumed = ssd.endurance_consumed();
        assert!((consumed - 0.001048).abs() < 1e-4, "consumed {consumed}");
    }

    #[test]
    fn write_rate_tracks_and_decays() {
        let mut ssd = SsdDevice::new(test_spec());
        let mut rng = DetRng::seed_from_u64(7);
        for _ in 0..50 {
            // 2 MiB written per 1 s tick ~ 2.1 MB/s
            ssd.access(IoKind::Write, ByteSize::from_mib(2), &mut rng);
            ssd.tick(SimDuration::from_secs(1));
        }
        let busy = ssd.write_rate_mbps();
        assert!((busy - 2.097).abs() < 0.2, "rate {busy}");
        for _ in 0..100 {
            ssd.tick(SimDuration::from_secs(1));
        }
        assert!(ssd.write_rate_mbps() < 0.01);
    }

    #[test]
    fn write_amplification_grows_with_utilisation() {
        let mut spec = test_spec();
        spec.capacity = ByteSize::from_mib(4);
        let mut ssd = SsdDevice::new(spec);
        let mut rng = DetRng::seed_from_u64(11);
        assert!((ssd.write_amplification() - 1.0).abs() < 1e-9);
        // Fill to ~94% logical utilisation.
        let page = ByteSize::from_kib(4);
        for _ in 0..960 {
            ssd.store(page, 1.0, &mut rng).expect("fits");
        }
        let wa = ssd.write_amplification();
        assert!(wa > 4.0, "WA {wa}");
        assert!(wa <= 8.0);
    }

    #[test]
    fn endurance_burns_faster_on_a_full_drive() {
        let make = |prefill: u64| {
            let mut spec = test_spec();
            spec.capacity = ByteSize::from_mib(4);
            let mut ssd = SsdDevice::new(spec);
            let mut rng = DetRng::seed_from_u64(12);
            let page = ByteSize::from_kib(4);
            for _ in 0..prefill {
                ssd.store(page, 1.0, &mut rng).expect("fits");
            }
            let before = ssd.endurance_consumed();
            for _ in 0..100 {
                ssd.access(IoKind::Write, page, &mut rng);
            }
            ssd.endurance_consumed() - before
        };
        let empty_cost = make(0);
        let full_cost = make(900);
        assert!(
            full_cost > empty_cost * 3.0,
            "full {full_cost} vs empty {empty_cost}"
        );
    }

    #[test]
    fn gc_inflates_write_latency_when_full() {
        let mut spec = test_spec();
        spec.capacity = ByteSize::from_mib(4);
        let mut ssd = SsdDevice::new(spec);
        let mut rng = DetRng::seed_from_u64(13);
        let page = ByteSize::from_kib(4);
        let n = 3000;
        let empty_mean: f64 = (0..n)
            .map(|_| ssd.access(IoKind::Write, page, &mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        for _ in 0..960 {
            ssd.store(page, 1.0, &mut rng).expect("fits");
        }
        let full_mean: f64 = (0..n)
            .map(|_| ssd.access(IoKind::Write, page, &mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!(
            full_mean > empty_mean * 2.0,
            "full {full_mean} vs empty {empty_mean}"
        );
    }

    #[test]
    fn congestion_inflates_loaded_device() {
        let mut ssd = SsdDevice::new(SsdSpec {
            read_iops: 1000.0,
            ..test_spec()
        });
        let mut rng = DetRng::seed_from_u64(8);
        for _ in 0..20 {
            for _ in 0..5000 {
                ssd.access(IoKind::Read, ByteSize::from_kib(4), &mut rng);
            }
            ssd.tick(SimDuration::from_secs(1));
        }
        assert!(ssd.read_inflation() > 2.0);
    }
}
