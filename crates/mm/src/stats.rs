//! Outcome and statistics types returned by the memory manager.

use tmo_sim::{ByteSize, PageCount, SimDuration};

/// Why a page access missed DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Anonymous page read back from the swap backend. Counts toward
    /// memory PSI, and toward IO PSI when the backend is a block device.
    SwapIn,
    /// File page recently evicted from the cache and re-read — a
    /// workingset refault. Counts toward memory PSI and IO PSI.
    Refault,
    /// File page read whose eviction was too long ago to qualify as a
    /// refault (or a first read). Counts toward IO PSI only — §3.4
    /// explicitly excludes first-time-accessed file cache from memory
    /// pressure.
    ColdFileRead,
}

/// Result of one page access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessOutcome {
    /// The page was resident; no stall.
    Hit,
    /// The access faulted; the task stalls for `latency`.
    Fault {
        /// What kind of miss this was.
        kind: FaultKind,
        /// Device / decompression latency of the fault itself.
        latency: SimDuration,
        /// Additional stall spent in direct reclaim to make room (zero
        /// unless DRAM was exhausted).
        reclaim_stall: SimDuration,
        /// Whether the fault involved block IO (false for zswap).
        block_io: bool,
    },
}

impl AccessOutcome {
    /// Total stall the task observes.
    pub fn stall(&self) -> SimDuration {
        match self {
            AccessOutcome::Hit => SimDuration::ZERO,
            AccessOutcome::Fault {
                latency,
                reclaim_stall,
                ..
            } => *latency + *reclaim_stall,
        }
    }

    /// The memory-PSI-qualifying portion of the stall (§3.2.3: reclaim,
    /// refault waits, swap reads — but not cold file reads).
    pub fn memory_stall(&self) -> SimDuration {
        match self {
            AccessOutcome::Hit => SimDuration::ZERO,
            AccessOutcome::Fault {
                kind,
                latency,
                reclaim_stall,
                ..
            } => match kind {
                FaultKind::SwapIn | FaultKind::Refault => *latency + *reclaim_stall,
                FaultKind::ColdFileRead => *reclaim_stall,
            },
        }
    }

    /// The IO-PSI-qualifying portion of the stall (any block IO wait).
    pub fn io_stall(&self) -> SimDuration {
        match self {
            AccessOutcome::Hit => SimDuration::ZERO,
            AccessOutcome::Fault {
                latency, block_io, ..
            } => {
                if *block_io {
                    *latency
                } else {
                    SimDuration::ZERO
                }
            }
        }
    }
}

/// Aggregated counters for one batch of page accesses, folded inline by
/// [`MemoryManager::access_batch_stats`](crate::MemoryManager::access_batch_stats)
/// so steady-state ticks never materialize a per-page outcome vector.
/// Every field is a commutative sum of per-outcome contributions, so the
/// totals equal what a caller looping over [`AccessOutcome`]s would
/// accumulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchAccessStats {
    /// Pages touched.
    pub accesses: u64,
    /// Accesses that missed DRAM.
    pub faults: u64,
    /// Faults that were swap-ins.
    pub swapins: u64,
    /// Faults that were workingset refaults.
    pub refaults: u64,
    /// Total stall across the batch ([`AccessOutcome::stall`]).
    pub stall: SimDuration,
    /// Memory-PSI-qualifying stall ([`AccessOutcome::memory_stall`]).
    pub mem_stall: SimDuration,
    /// IO-PSI-qualifying stall ([`AccessOutcome::io_stall`]).
    pub io_stall: SimDuration,
}

impl BatchAccessStats {
    /// Folds one access outcome into the running totals.
    pub fn fold(&mut self, outcome: AccessOutcome) {
        self.accesses += 1;
        if let AccessOutcome::Fault { kind, .. } = outcome {
            self.faults += 1;
            match kind {
                FaultKind::SwapIn => self.swapins += 1,
                FaultKind::Refault => self.refaults += 1,
                FaultKind::ColdFileRead => {}
            }
        }
        self.stall += outcome.stall();
        self.mem_stall += outcome.memory_stall();
        self.io_stall += outcome.io_stall();
    }
}

/// Result of one reclaim request (`memory.reclaim` or direct reclaim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReclaimOutcome {
    /// File pages dropped.
    pub reclaimed_file: PageCount,
    /// Anonymous pages swapped out.
    pub reclaimed_anon: PageCount,
    /// Pages scanned (including rotations).
    pub scanned: PageCount,
    /// Whether anon reclaim was cut short because the swap backend was
    /// full (Senpai's swap-exhaustion signal).
    pub swap_full: bool,
}

impl ReclaimOutcome {
    /// Total pages reclaimed.
    pub fn reclaimed(&self) -> PageCount {
        self.reclaimed_file + self.reclaimed_anon
    }

    /// Accumulates another outcome.
    pub fn merge(&mut self, other: ReclaimOutcome) {
        self.reclaimed_file += other.reclaimed_file;
        self.reclaimed_anon += other.reclaimed_anon;
        self.scanned += other.scanned;
        self.swap_full |= other.swap_full;
    }
}

/// A `memory.stat`-style snapshot for one cgroup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgroupStat {
    /// Resident anonymous pages.
    pub anon_resident: PageCount,
    /// Resident file pages.
    pub file_resident: PageCount,
    /// Anonymous pages in the swap backend.
    pub anon_offloaded: PageCount,
    /// File pages evicted with live shadow entries.
    pub file_evicted: PageCount,
    /// Cumulative workingset refaults.
    pub refaults_total: u64,
    /// Cumulative swap-ins.
    pub swapins_total: u64,
    /// Cumulative swap-outs.
    pub swapouts_total: u64,
    /// Smoothed refault rate (events/s).
    pub refault_rate: f64,
    /// Smoothed swap-in rate (events/s) — the promotion rate of §4.3.
    pub swapin_rate: f64,
    /// Smoothed swap-out rate (events/s).
    pub swapout_rate: f64,
    /// Cumulative swap-ins whose page the backend had lost (device
    /// death); each was re-established zero-filled instead of
    /// panicking.
    pub lost_loads: u64,
}

impl CgroupStat {
    /// Locally resident pages.
    pub fn resident(&self) -> PageCount {
        self.anon_resident + self.file_resident
    }

    /// The container's total footprint: resident plus offloaded.
    pub fn footprint(&self) -> PageCount {
        self.resident() + self.anon_offloaded
    }
}

/// Machine-wide memory statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalStat {
    /// Total DRAM configured.
    pub total_dram: ByteSize,
    /// DRAM consumed by resident pages.
    pub resident_bytes: ByteSize,
    /// DRAM consumed by the zswap pool (zero for non-zswap backends).
    pub zswap_pool_bytes: ByteSize,
    /// Free DRAM.
    pub free_bytes: ByteSize,
    /// Cumulative direct-reclaim invocations.
    pub direct_reclaims: u64,
    /// Cumulative allocation failures (after reclaim could not free).
    pub alloc_failures: u64,
    /// Machine-wide total of swap-ins the backend could not serve
    /// (lost pages re-established zero-filled).
    pub lost_loads: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_has_no_stall() {
        let o = AccessOutcome::Hit;
        assert_eq!(o.stall(), SimDuration::ZERO);
        assert_eq!(o.memory_stall(), SimDuration::ZERO);
        assert_eq!(o.io_stall(), SimDuration::ZERO);
    }

    #[test]
    fn swap_in_counts_memory_and_io() {
        let o = AccessOutcome::Fault {
            kind: FaultKind::SwapIn,
            latency: SimDuration::from_micros(500),
            reclaim_stall: SimDuration::from_micros(100),
            block_io: true,
        };
        assert_eq!(o.stall(), SimDuration::from_micros(600));
        assert_eq!(o.memory_stall(), SimDuration::from_micros(600));
        assert_eq!(o.io_stall(), SimDuration::from_micros(500));
    }

    #[test]
    fn zswap_fault_is_memory_not_io() {
        let o = AccessOutcome::Fault {
            kind: FaultKind::SwapIn,
            latency: SimDuration::from_micros(40),
            reclaim_stall: SimDuration::ZERO,
            block_io: false,
        };
        assert_eq!(o.memory_stall(), SimDuration::from_micros(40));
        assert_eq!(o.io_stall(), SimDuration::ZERO);
    }

    #[test]
    fn cold_file_read_is_io_only() {
        let o = AccessOutcome::Fault {
            kind: FaultKind::ColdFileRead,
            latency: SimDuration::from_micros(800),
            reclaim_stall: SimDuration::ZERO,
            block_io: true,
        };
        assert_eq!(o.memory_stall(), SimDuration::ZERO);
        assert_eq!(o.io_stall(), SimDuration::from_micros(800));
    }

    #[test]
    fn reclaim_outcome_merge() {
        let mut a = ReclaimOutcome {
            reclaimed_file: PageCount::new(10),
            reclaimed_anon: PageCount::new(5),
            scanned: PageCount::new(20),
            swap_full: false,
        };
        a.merge(ReclaimOutcome {
            reclaimed_file: PageCount::new(1),
            reclaimed_anon: PageCount::new(2),
            scanned: PageCount::new(3),
            swap_full: true,
        });
        assert_eq!(a.reclaimed(), PageCount::new(18));
        assert!(a.swap_full);
    }
}
