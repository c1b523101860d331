//! Invariant suite for the refactored mm engine: the dense page slab,
//! generation-stamped LRU lists, and the batched access path must keep
//! the cgroup counters, the LRU live lengths, and the per-page states
//! mutually consistent under arbitrary operation interleavings.
//!
//! These are the checks that would have caught the historical
//! `forget_one`/`maybe_compact` drift bug: a stale entry revalidating
//! after compaction inflated an LRU's live length past the cgroup's
//! resident counter.

use proptest::prelude::*;
use tmo_backends::{OffloadBackend, ZswapAllocator, ZswapPool};
use tmo_mm::{
    AccessOutcome, BatchAccessStats, FaultKind, LruTier, MemoryManager, MmConfig, PageId, PageKind,
    ReclaimPolicy,
};
use tmo_sim::{ByteSize, SimDuration, SimTime};

const PAGE: ByteSize = ByteSize::from_kib(4);
const DRAM_PAGES: u64 = 256;

#[derive(Debug, Clone)]
enum Op {
    AllocAnon(u8),
    AllocFile(u8),
    /// Touch up to 8 pages starting at a pseudo-index (batched).
    Access(u16, u8),
    Reclaim(u8),
    Free(u16),
    Tick,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..20).prop_map(Op::AllocAnon),
        (1u8..20).prop_map(Op::AllocFile),
        (any::<u16>(), 1u8..8).prop_map(|(i, n)| Op::Access(i, n)),
        (1u8..30).prop_map(Op::Reclaim),
        any::<u16>().prop_map(Op::Free),
        Just(Op::Tick),
    ]
}

fn build_mm() -> MemoryManager {
    let swap: Option<Box<dyn OffloadBackend>> = Some(Box::new(ZswapPool::new(
        ByteSize::new(PAGE.as_u64() * DRAM_PAGES / 2),
        ZswapAllocator::Zsmalloc,
    )));
    MemoryManager::new(MmConfig {
        page_size: PAGE,
        total_dram: ByteSize::new(PAGE.as_u64() * DRAM_PAGES),
        swap,
        policy: ReclaimPolicy::RefaultBalanced,
        ..MmConfig::default()
    })
}

/// The load-bearing invariant: for every cgroup, the resident counters
/// (what `memory.current` is built from) equal the live lengths of the
/// LRU lists, per kind, and no list's live length exceeds its physical
/// length.
fn assert_lru_accounting(mm: &MemoryManager) {
    for cg in mm.cgroup_ids() {
        let stat = mm.cgroup_stat(cg);
        let lrus = mm.cgroup(cg).lrus();
        assert_eq!(
            stat.anon_resident.as_u64(),
            lrus.kind_len(PageKind::Anon),
            "anon resident counter != anon LRU live length"
        );
        assert_eq!(
            stat.file_resident.as_u64(),
            lrus.kind_len(PageKind::File),
            "file resident counter != file LRU live length"
        );
        for kind in PageKind::ALL {
            for tier in [LruTier::Active, LruTier::Inactive] {
                let list = lrus.list(kind, tier);
                assert!(
                    list.len() <= list.physical_len() as u64,
                    "live length {} exceeds physical length {} for {kind}/{tier:?}",
                    list.len(),
                    list.physical_len()
                );
            }
        }
    }
}

/// Applies one op to `mm`, keeping `live` in sync. Batched accesses go
/// through `access_batch_stats`, the path the Machine tick uses.
fn apply(mm: &mut MemoryManager, live: &mut Vec<PageId>, now: SimTime, op: &Op) {
    match op {
        Op::AllocAnon(n) => {
            if let Ok(out) = mm.alloc_pages(
                mm.cgroup_ids().next().unwrap(),
                PageKind::Anon,
                *n as u64,
                now,
            ) {
                live.extend(out.pages);
            }
        }
        Op::AllocFile(n) => {
            if let Ok(out) = mm.alloc_pages(
                mm.cgroup_ids().next().unwrap(),
                PageKind::File,
                *n as u64,
                now,
            ) {
                live.extend(out.pages);
            }
        }
        Op::Access(idx, n) => {
            if !live.is_empty() {
                let ids: Vec<PageId> = (0..*n as usize)
                    .map(|k| live[(*idx as usize + k) % live.len()])
                    .collect();
                let _ = mm.access_batch_stats(&ids, now, &mut Vec::new());
            }
        }
        Op::Reclaim(n) => {
            let cg = mm.cgroup_ids().next().unwrap();
            let _ = mm.reclaim(cg, ByteSize::new(PAGE.as_u64() * *n as u64));
        }
        Op::Free(idx) => {
            if !live.is_empty() {
                let i = *idx as usize % live.len();
                let id = live.swap_remove(i);
                mm.free_pages_of(&[id]);
            }
        }
        Op::Tick => mm.tick(SimDuration::from_secs(1)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every single operation, counters and LRU live lengths
    /// agree. This is deliberately checked per-op, not just at the end:
    /// drift that a later compaction would mask still fails.
    #[test]
    fn lru_live_lengths_track_resident_counters(
        ops in prop::collection::vec(arb_op(), 1..200),
    ) {
        let mut mm = build_mm();
        mm.create_cgroup("fuzz");
        let mut live = Vec::new();
        let mut now = SimTime::ZERO;
        for op in &ops {
            now += SimDuration::from_millis(100);
            apply(&mut mm, &mut live, now, op);
            assert_lru_accounting(&mm);
        }
    }

    /// Counters never underflow: the sum of all page-state buckets
    /// equals exactly the number of live (not-freed) pages, so no
    /// bucket can have wrapped past zero.
    #[test]
    fn no_counter_underflow(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut mm = build_mm();
        mm.create_cgroup("fuzz");
        let mut live = Vec::new();
        let mut now = SimTime::ZERO;
        for op in &ops {
            now += SimDuration::from_millis(100);
            apply(&mut mm, &mut live, now, op);
            let cg = mm.cgroup_ids().next().unwrap();
            let stat = mm.cgroup_stat(cg);
            let tracked = stat.anon_resident.as_u64()
                + stat.file_resident.as_u64()
                + stat.anon_offloaded.as_u64()
                + stat.file_evicted.as_u64();
            prop_assert_eq!(tracked, live.len() as u64);
            // A wrapped-around u64 would dwarf the page population.
            prop_assert!(tracked <= DRAM_PAGES * 4);
        }
    }

    /// Ticking (which compacts the LRU lists) changes no observable
    /// state: same counters, same live lengths, same per-page states.
    #[test]
    fn compaction_preserves_live_set(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut mm = build_mm();
        mm.create_cgroup("fuzz");
        let mut live = Vec::new();
        let mut now = SimTime::ZERO;
        for op in &ops {
            now += SimDuration::from_millis(100);
            apply(&mut mm, &mut live, now, op);
        }
        let cg = mm.cgroup_ids().next().unwrap();
        let before_stat = mm.cgroup_stat(cg);
        let before_states: Vec<_> = live.iter().map(|&p| mm.page(p).state()).collect();
        // Rate counters decay on tick, so compare the conserved parts.
        mm.tick(SimDuration::from_secs(1));
        let after_stat = mm.cgroup_stat(cg);
        prop_assert_eq!(before_stat.anon_resident, after_stat.anon_resident);
        prop_assert_eq!(before_stat.file_resident, after_stat.file_resident);
        prop_assert_eq!(before_stat.anon_offloaded, after_stat.anon_offloaded);
        prop_assert_eq!(before_stat.file_evicted, after_stat.file_evicted);
        let after_states: Vec<_> = live.iter().map(|&p| mm.page(p).state()).collect();
        prop_assert_eq!(before_states, after_states);
        assert_lru_accounting(&mm);
    }

    /// Differential check of the production batch path: the same access
    /// sequence driven one page at a time through the scalar oracle and
    /// as `access_batch_stats` batches produces equal folded totals, the
    /// same swap-in latency sequence, and identical final state on two
    /// managers built from the same config.
    #[test]
    fn batch_access_matches_singles(
        n_anon in 1u64..60,
        n_file in 1u64..60,
        reclaim_pages in 0u64..80,
        picks in prop::collection::vec(any::<u16>(), 1..120),
        chunk in 1usize..16,
    ) {
        let mut mm_single = build_mm();
        let mut mm_batch = build_mm();
        let cg_s = mm_single.create_cgroup("w");
        let cg_b = mm_batch.create_cgroup("w");
        let mut pages_s = Vec::new();
        let mut pages_b = Vec::new();
        for (mm, cg, pages) in [
            (&mut mm_single, cg_s, &mut pages_s),
            (&mut mm_batch, cg_b, &mut pages_b),
        ] {
            pages.extend(mm.alloc_pages(cg, PageKind::Anon, n_anon, SimTime::ZERO).expect("fits").pages);
            pages.extend(mm.alloc_pages(cg, PageKind::File, n_file, SimTime::ZERO).expect("fits").pages);
            mm.reclaim(cg, ByteSize::new(PAGE.as_u64() * reclaim_pages));
        }
        prop_assert_eq!(&pages_s, &pages_b);
        let now = SimTime::from_secs(3);
        let ids: Vec<PageId> = picks
            .iter()
            .map(|&i| pages_s[i as usize % pages_s.len()])
            .collect();
        let mut single_totals = BatchAccessStats::default();
        let mut single_latencies = Vec::new();
        for &id in &ids {
            let outcome = mm_single.access(id, now);
            if let AccessOutcome::Fault { kind: FaultKind::SwapIn, latency, .. } = outcome {
                single_latencies.push(latency.as_secs_f64());
            }
            single_totals.fold(outcome);
        }
        let mut batch_totals = BatchAccessStats::default();
        let mut batch_latencies = Vec::new();
        for chunk_ids in ids.chunks(chunk) {
            let stats = mm_batch.access_batch_stats(chunk_ids, now, &mut batch_latencies);
            batch_totals.accesses += stats.accesses;
            batch_totals.faults += stats.faults;
            batch_totals.swapins += stats.swapins;
            batch_totals.refaults += stats.refaults;
            batch_totals.stall += stats.stall;
            batch_totals.mem_stall += stats.mem_stall;
            batch_totals.io_stall += stats.io_stall;
        }
        prop_assert_eq!(single_totals, batch_totals);
        prop_assert_eq!(single_latencies, batch_latencies);
        prop_assert_eq!(mm_single.cgroup_stat(cg_s), mm_batch.cgroup_stat(cg_b));
        prop_assert_eq!(mm_single.global_stat(), mm_batch.global_stat());
        for (&a, &b) in pages_s.iter().zip(&pages_b) {
            prop_assert_eq!(mm_single.page(a).state(), mm_batch.page(b).state());
        }
        assert_lru_accounting(&mm_single);
        assert_lru_accounting(&mm_batch);
    }
}
