//! Property-based tests of memory-manager conservation invariants:
//! pages never vanish or double-count regardless of the interleaving of
//! allocation, access, reclaim, and free operations.

use proptest::prelude::*;
use tmo_backends::{OffloadBackend, ZswapAllocator, ZswapPool};
use tmo_mm::{MemoryManager, MmConfig, PageId, PageKind, ReclaimPolicy};
use tmo_sim::{ByteSize, SimDuration, SimTime};

const PAGE: ByteSize = ByteSize::from_kib(4);
const DRAM_PAGES: u64 = 256;

#[derive(Debug, Clone)]
enum Op {
    AllocAnon(u8),
    AllocFile(u8),
    Access(u16),
    Reclaim(u8),
    Free(u16),
    Tick,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..20).prop_map(Op::AllocAnon),
        (1u8..20).prop_map(Op::AllocFile),
        any::<u16>().prop_map(Op::Access),
        (1u8..30).prop_map(Op::Reclaim),
        any::<u16>().prop_map(Op::Free),
        Just(Op::Tick),
    ]
}

fn build_mm(policy: ReclaimPolicy, with_swap: bool) -> MemoryManager {
    let swap: Option<Box<dyn OffloadBackend>> = if with_swap {
        Some(Box::new(ZswapPool::new(
            ByteSize::new(PAGE.as_u64() * DRAM_PAGES / 2),
            ZswapAllocator::Zsmalloc,
        )))
    } else {
        None
    };
    MemoryManager::new(MmConfig {
        page_size: PAGE,
        total_dram: ByteSize::new(PAGE.as_u64() * DRAM_PAGES),
        swap,
        policy,
        ..MmConfig::default()
    })
}

fn run_ops(mm: &mut MemoryManager, ops: &[Op]) -> (Vec<PageId>, u64, u64) {
    let cg = mm.create_cgroup("fuzz");
    let mut live: Vec<PageId> = Vec::new();
    let mut now = SimTime::ZERO;
    let (mut allocated, mut freed) = (0u64, 0u64);
    for op in ops {
        now += SimDuration::from_millis(100);
        match op {
            Op::AllocAnon(n) => {
                if let Ok(out) = mm.alloc_pages(cg, PageKind::Anon, *n as u64, now) {
                    allocated += out.pages.len() as u64;
                    live.extend(out.pages);
                }
            }
            Op::AllocFile(n) => {
                if let Ok(out) = mm.alloc_pages(cg, PageKind::File, *n as u64, now) {
                    allocated += out.pages.len() as u64;
                    live.extend(out.pages);
                }
            }
            Op::Access(idx) => {
                if !live.is_empty() {
                    let id = live[*idx as usize % live.len()];
                    let _ = mm.access(id, now);
                }
            }
            Op::Reclaim(n) => {
                let _ = mm.reclaim(cg, ByteSize::new(PAGE.as_u64() * *n as u64));
            }
            Op::Free(idx) => {
                if !live.is_empty() {
                    let i = *idx as usize % live.len();
                    let id = live.swap_remove(i);
                    mm.free_pages_of(&[id]);
                    freed += 1;
                }
            }
            Op::Tick => mm.tick(SimDuration::from_secs(1)),
        }
    }
    (live, allocated, freed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn page_conservation_with_zswap(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut mm = build_mm(ReclaimPolicy::RefaultBalanced, true);
        let (live, allocated, freed) = run_ops(&mut mm, &ops);
        let cg = mm.cgroup_ids().next().expect("created");
        let stat = mm.cgroup_stat(cg);

        // Every live page is somewhere: resident, offloaded, or evicted.
        let tracked = stat.anon_resident.as_u64()
            + stat.file_resident.as_u64()
            + stat.anon_offloaded.as_u64()
            + stat.file_evicted.as_u64();
        prop_assert_eq!(tracked, live.len() as u64);
        prop_assert_eq!(allocated - freed, live.len() as u64);

        // Resident never exceeds DRAM (minus the zswap pool share).
        let global = mm.global_stat();
        prop_assert!(
            global.resident_bytes.as_u64() + global.zswap_pool_bytes.as_u64()
                <= global.total_dram.as_u64() + PAGE.as_u64() // ceil slack
        );

        // Per-page states agree with the aggregate counters.
        let resident = live.iter().filter(|&&p| mm.page(p).is_resident()).count() as u64;
        prop_assert_eq!(
            resident,
            stat.anon_resident.as_u64() + stat.file_resident.as_u64()
        );
    }

    #[test]
    fn page_conservation_file_only(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut mm = build_mm(ReclaimPolicy::RefaultBalanced, false);
        let (live, _, _) = run_ops(&mut mm, &ops);
        let cg = mm.cgroup_ids().next().expect("created");
        let stat = mm.cgroup_stat(cg);
        // No swap: anon pages can never be offloaded.
        prop_assert_eq!(stat.anon_offloaded.as_u64(), 0);
        let tracked = stat.anon_resident.as_u64()
            + stat.file_resident.as_u64()
            + stat.file_evicted.as_u64();
        prop_assert_eq!(tracked, live.len() as u64);
    }

    #[test]
    fn legacy_policy_conserves_too(ops in prop::collection::vec(arb_op(), 1..150)) {
        let mut mm = build_mm(ReclaimPolicy::LegacyFileFirst, true);
        let (live, _, _) = run_ops(&mut mm, &ops);
        let cg = mm.cgroup_ids().next().expect("created");
        let stat = mm.cgroup_stat(cg);
        let tracked = stat.anon_resident.as_u64()
            + stat.file_resident.as_u64()
            + stat.anon_offloaded.as_u64()
            + stat.file_evicted.as_u64();
        prop_assert_eq!(tracked, live.len() as u64);
    }

    #[test]
    fn accessing_everything_faults_everything_back(
        n_anon in 1u64..40,
        n_file in 1u64..40,
        reclaim_pages in 1u64..60,
    ) {
        let mut mm = build_mm(ReclaimPolicy::RefaultBalanced, true);
        let cg = mm.create_cgroup("w");
        let mut pages = Vec::new();
        pages.extend(
            mm.alloc_pages(cg, PageKind::Anon, n_anon, SimTime::ZERO)
                .expect("fits").pages,
        );
        pages.extend(
            mm.alloc_pages(cg, PageKind::File, n_file, SimTime::ZERO)
                .expect("fits").pages,
        );
        mm.reclaim(cg, ByteSize::new(PAGE.as_u64() * reclaim_pages));
        let t = SimTime::from_secs(5);
        for &p in &pages {
            let _ = mm.access(p, t);
        }
        for &p in &pages {
            prop_assert!(mm.page(p).is_resident());
        }
        let stat = mm.cgroup_stat(cg);
        prop_assert_eq!(stat.resident().as_u64(), n_anon + n_file);
        prop_assert_eq!(stat.anon_offloaded.as_u64(), 0);
        prop_assert_eq!(stat.file_evicted.as_u64(), 0);
    }
}
