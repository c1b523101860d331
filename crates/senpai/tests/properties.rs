//! Property-based tests of the Senpai control law.

use proptest::prelude::*;
use tmo_senpai::{ContainerSignal, Senpai, SenpaiConfig};
use tmo_sim::ByteSize;

fn senpai() -> Senpai {
    Senpai::new(SenpaiConfig::production())
}

fn signal(mem: f64, io: f64, write: f64) -> ContainerSignal {
    ContainerSignal {
        current_mem: ByteSize::from_gib(1),
        mem_some_avg10: mem,
        io_some_avg10: io,
        swap_write_mbps: write,
        ..ContainerSignal::default()
    }
}

proptest! {
    #[test]
    fn reclaim_is_bounded_by_the_step_cap(
        mem in 0.0f64..0.01,
        io in 0.0f64..0.01,
        write in 0.0f64..5.0,
        mib in 1u64..100_000,
    ) {
        let s = senpai();
        let d = s.decide(&ContainerSignal {
            current_mem: ByteSize::from_mib(mib),
            ..signal(mem, io, write)
        });
        let cap = ByteSize::from_mib(mib).mul_f64(s.config().max_step_fraction);
        prop_assert!(d.reclaim <= cap, "reclaim {} over cap {}", d.reclaim, cap);
    }

    #[test]
    fn reclaim_is_monotone_decreasing_in_memory_pressure(
        lo in 0.0f64..0.001,
        delta in 0.0f64..0.001,
    ) {
        let s = senpai();
        let calm = s.decide(&signal(lo, 0.0, 0.0)).reclaim;
        let pressured = s.decide(&signal(lo + delta, 0.0, 0.0)).reclaim;
        prop_assert!(pressured <= calm);
    }

    #[test]
    fn reclaim_is_monotone_decreasing_in_io_pressure(
        lo in 0.0f64..0.001,
        delta in 0.0f64..0.001,
    ) {
        let s = senpai();
        let calm = s.decide(&signal(0.0, lo, 0.0)).reclaim;
        let pressured = s.decide(&signal(0.0, lo + delta, 0.0)).reclaim;
        prop_assert!(pressured <= calm);
    }

    #[test]
    fn reclaim_is_monotone_decreasing_in_write_rate(
        lo in 0.0f64..1.0,
        delta in 0.0f64..1.0,
    ) {
        let s = senpai();
        let calm = s.decide(&signal(0.0, 0.0, lo)).reclaim;
        let regulated = s.decide(&signal(0.0, 0.0, lo + delta)).reclaim;
        prop_assert!(regulated <= calm);
    }

    #[test]
    fn pressure_at_or_above_threshold_always_stops_reclaim(
        over in 0.0f64..1.0,
        io in 0.0f64..1.0,
    ) {
        let s = senpai();
        let d = s.decide(&signal(s.config().psi_threshold + over, io, 0.0));
        prop_assert_eq!(d.reclaim, ByteSize::ZERO);
    }

    #[test]
    fn relaxed_containers_reclaim_at_least_as_much(
        mem in 0.0f64..0.004,
        io in 0.0f64..0.004,
    ) {
        let s = senpai();
        let normal = s.decide(&signal(mem, io, 0.0)).reclaim;
        let relaxed = s
            .decide(&ContainerSignal {
                relaxed: true,
                ..signal(mem, io, 0.0)
            })
            .reclaim;
        prop_assert!(relaxed >= normal);
    }

    #[test]
    fn reclaim_scales_linearly_with_container_size(
        mem in 0.0f64..0.0009,
        mib in 64u64..10_000,
    ) {
        let s = senpai();
        let small = s
            .decide(&ContainerSignal {
                current_mem: ByteSize::from_mib(mib),
                ..signal(mem, 0.0, 0.0)
            })
            .reclaim;
        let large = s
            .decide(&ContainerSignal {
                current_mem: ByteSize::from_mib(mib * 2),
                ..signal(mem, 0.0, 0.0)
            })
            .reclaim;
        // Twice the container: twice the step (within a byte of
        // rounding per mul_f64 truncation).
        let expected = small.as_u64() * 2;
        prop_assert!(
            large.as_u64().abs_diff(expected) <= 2,
            "large {} vs 2x small {}",
            large.as_u64(),
            expected
        );
    }
}
