//! A host that panics fails the run, except for the panics
//! `scenario_chaos` injects on purpose.

#![allow(clippy::disallowed_methods)]

use tmo::prelude::*;
use tmo::HostOutcome;
use tmo_experiments::{ext_adversarial, Scale};
use tmo_perfbench::workload::{fleet_machine, Rep, INJECTED_PANIC};

#[test]
fn a_panicking_host_fails_the_run_unless_its_panic_was_injected() {
    let apps: Vec<AppProfile> = apps::figure9_apps().into_iter().map(|(a, _)| a).collect();
    // Host 0 runs to the end, host 1 hits a bug, and host 2 dies of a
    // panic its fault plan injects.
    let (outs, _) = FleetRunner::new(2).run_collect_seeded(9, 3, |ctx| match ctx.index {
        0 => {
            let m = fleet_machine(256, &apps[0], ctx.seed, MachineScratch::default());
            TmoRuntime::with_senpai(m, SenpaiConfig::accelerated(40.0))
                .run(SimDuration::from_secs(10));
        }
        1 => panic!("index out of bounds: the len is 3 but the index is 7"),
        _ => {
            let doomed = FaultConfig {
                panic_per_min: 60.0,
                ..FaultConfig::chaos(1.0)
            };
            let m = ext_adversarial::build_host(
                ctx.seed,
                Scale::Quick,
                Some(doomed),
                MachineScratch::default(),
            );
            TmoRuntime::with_senpai(m, SenpaiConfig::accelerated(40.0))
                .run(SimDuration::from_mins(2));
        }
    });
    let failed: Vec<_> = outs
        .iter()
        .enumerate()
        .filter_map(|(i, o)| match o {
            HostOutcome::Completed(()) => None,
            HostOutcome::Failed(e) => Some((i, e)),
        })
        .collect();
    assert_eq!(failed.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [1, 2]);
    assert!(failed[1].1.message.starts_with(INJECTED_PANIC));

    // Where no panic is injected, both fail the run.
    let mut fleet = Rep::default();
    for &(i, e) in &failed {
        fleet.add_panic(i, e, false);
    }
    assert_eq!(fleet.failures.len(), 2, "{:?}", fleet.failures);
    assert_eq!((fleet.attempted, fleet.completed), (2, 0));

    // On a workload that injects panics, only the bug does.
    let mut chaos = Rep::default();
    for &(i, e) in &failed {
        chaos.add_panic(i, e, true);
    }
    assert_eq!(chaos.failures.len(), 1, "{:?}", chaos.failures);
    assert!(chaos.failures[0].starts_with("host 1 panicked"));
    assert_eq!(chaos.unit_digests, fleet.unit_digests);
}
