//! Shared helpers for the TMO reproduction benchmarks.
//!
//! The real content lives in `benches/`: `figures` (one benchmark per
//! paper figure, each driving the corresponding `tmo-experiments`
//! reproduction at reduced scale), `micro` (hot-path benchmarks of the
//! PSI engine, the LRU/reclaim machinery, and the device models), and
//! `ablations` (the DESIGN.md design-choice ablations).

use tmo::prelude::*;
use tmo_mm::{LruTier, PageKind};

pub mod report;

/// Builds the standard small benchmark host: 256 MiB DRAM, zswap
/// backend, one Feed container at 96 MiB.
pub fn bench_machine(seed: u64) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        dram: ByteSize::from_mib(256),
        swap: SwapKind::Zswap {
            capacity_fraction: 0.3,
            allocator: ZswapAllocator::Zsmalloc,
        },
        seed,
        ..MachineConfig::default()
    });
    machine.add_container(&apps::feed().with_mem_total(ByteSize::from_mib(96)));
    machine
}

/// Renders one deterministic snapshot of the machine's mm state for the
/// golden-trace test: global counters, then per-cgroup `memory.stat`
/// counters, rates, and live LRU lengths, in cgroup-id order. Every
/// field is either an integer or a fixed-precision float, so the output
/// is byte-stable across runs and worker counts.
pub fn mm_snapshot(machine: &Machine, label: &str) -> String {
    let mm = machine.mm();
    let g = mm.global_stat();
    let mut out = format!(
        "[{label}] global resident={} zswap_pool={} free={} direct_reclaims={} \
         alloc_failures={} lost_loads={}\n",
        g.resident_bytes.as_u64(),
        g.zswap_pool_bytes.as_u64(),
        g.free_bytes.as_u64(),
        g.direct_reclaims,
        g.alloc_failures,
        g.lost_loads,
    );
    for cg in mm.cgroup_ids() {
        let s = mm.cgroup_stat(cg);
        out.push_str(&format!(
            "[{label}] {cg} name={} anon={} file={} swapped={} evicted={} subtree={} \
             refaults={} pswpin={} pswpout={} lost={} rates={:.6}/{:.6}/{:.6}\n",
            mm.cgroup(cg).name(),
            s.anon_resident.as_u64(),
            s.file_resident.as_u64(),
            s.anon_offloaded.as_u64(),
            s.file_evicted.as_u64(),
            s.resident().as_u64(),
            s.refaults_total,
            s.swapins_total,
            s.swapouts_total,
            s.lost_loads,
            s.refault_rate,
            s.swapin_rate,
            s.swapout_rate,
        ));
        let lrus = mm.cgroup(cg).lrus();
        let live = |kind, tier| lrus.list(kind, tier).len();
        out.push_str(&format!(
            "[{label}] {cg} lru anon={}+{} file={}+{}\n",
            live(PageKind::Anon, LruTier::Active),
            live(PageKind::Anon, LruTier::Inactive),
            live(PageKind::File, LruTier::Active),
            live(PageKind::File, LruTier::Inactive),
        ));
    }
    out
}

/// The golden mm trace: drives [`bench_machine`] for `ticks` ticks,
/// reclaiming 8 MiB from every container each 40th tick so the swap-out
/// and refault paths are exercised, and snapshots the full mm state
/// every 30 ticks. `scripts/golden/mm_trace.txt` pins the output.
pub fn mm_trace(seed: u64, ticks: u64) -> String {
    let mut machine = bench_machine(seed);
    let ids: Vec<ContainerId> = machine.container_ids().collect();
    let mut out = format!("mm-trace v1 seed={seed} ticks={ticks}\n");
    for t in 1..=ticks {
        machine.tick();
        if t % 40 == 0 {
            for &id in &ids {
                machine.reclaim(id, ByteSize::from_mib(8));
            }
        }
        if t % 30 == 0 {
            out.push_str(&mm_snapshot(&machine, &format!("t={t:04}")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_machine_builds() {
        let m = bench_machine(1);
        assert_eq!(m.container_count(), 1);
    }

    #[test]
    fn mm_snapshot_is_stable_within_a_run() {
        let m = bench_machine(1);
        assert_eq!(mm_snapshot(&m, "x"), mm_snapshot(&m, "x"));
        assert!(mm_snapshot(&m, "x").starts_with("[x] global resident="));
    }
}
