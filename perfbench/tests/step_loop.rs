//! The benchmark's traced step loop makes the same calls as the
//! program's own run loops: it must leave a host bit-identical to
//! `TmoRuntime::run` and score a scenario exactly as `run_scenario` does.
//! The untraced loops, which time each `TmoRuntime::tick`, must leave the
//! host as the program's loops do too.

#![allow(clippy::disallowed_methods)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use tmo::prelude::*;
use tmo_experiments::{ext_adversarial, Scale};
use tmo_perfbench::host::{machine_digest, run_timed, scenario_runtime, Counters, Driven};
use tmo_perfbench::trace::Tracer;
use tmo_perfbench::workload::fleet_machine;
use tmo_scenarios::prelude::*;

const RUN: SimDuration = SimDuration::from_secs(90);

fn tracer() -> Tracer {
    Tracer::new(std::time::Instant::now(), 0)
}

/// Runs `host` through the traced step loop; `None` if it panicked.
fn traced_run(host: Machine, config: SenpaiConfig) -> Option<u64> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut d = Driven::senpai(host, config);
        d.run(RUN, &mut tracer(), &mut Counters::default())
            .expect("invariants hold");
        machine_digest(&d.into_machine())
    }))
    .ok()
}

/// Runs `host` through the timed untraced loop; `None` if it panicked.
fn timed_run(host: Machine, config: SenpaiConfig) -> Option<u64> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut rt = TmoRuntime::with_senpai(host, config);
        let mut samples = Vec::new();
        run_timed(&mut rt, RUN, &mut samples).expect("invariants hold");
        assert!(samples.len() >= 900, "one sample per tick");
        machine_digest(rt.machine())
    }))
    .ok()
}

/// Runs `host` through `TmoRuntime::run`; `None` if it panicked.
fn runtime_run(host: Machine, config: SenpaiConfig) -> Option<u64> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut rt = TmoRuntime::with_senpai(host, config);
        rt.run(RUN);
        machine_digest(rt.machine())
    }))
    .ok()
}

#[test]
fn step_loop_equals_tmo_runtime_run() {
    let apps: Vec<AppProfile> = apps::figure9_apps().into_iter().map(|(a, _)| a).collect();
    let config = SenpaiConfig::accelerated(40.0);
    for (i, seed) in [3u64, 11, 2024].into_iter().enumerate() {
        let host = || fleet_machine(256, &apps[i], seed, MachineScratch::default());
        let want = runtime_run(host(), config.clone()).expect("fleet hosts never panic");
        assert_eq!(
            traced_run(host(), config.clone()),
            Some(want),
            "seed {seed}"
        );
        assert_eq!(timed_run(host(), config.clone()), Some(want), "seed {seed}");
    }
}

#[test]
fn step_loop_equals_tmo_runtime_run_on_chaos_hosts() {
    let chaos = FaultConfig::chaos(1.0);
    // Panics often enough that the host dies inside the run.
    let doomed = FaultConfig {
        panic_per_min: 6.0,
        ..chaos
    };
    let config = SenpaiConfig::accelerated(40.0);
    for (seed, faults, dies) in [(5u64, chaos, false), (6, chaos, false), (7, doomed, true)] {
        let host = || {
            ext_adversarial::build_host(seed, Scale::Quick, Some(faults), MachineScratch::default())
        };
        let want = runtime_run(host(), config.clone());
        assert_eq!(want.is_none(), dies, "seed {seed}");
        assert_eq!(traced_run(host(), config.clone()), want, "seed {seed}");
        assert_eq!(timed_run(host(), config.clone()), want, "seed {seed}");
    }
}

#[test]
fn step_loop_equals_run_scenario() {
    let run = SimDuration::from_mins(2);
    let dram = ByteSize::from_mib(Scale::Quick.dram_mib());
    let cfg = ScenarioRunConfig {
        duration: run,
        ..ext_adversarial::run_config(Scale::Quick, false)
    };
    let cases = [
        (catalog::composite(run, dram), 41u64),
        (catalog::slow_leak(run, dram), 42),
        (catalog::cascade_failure(run, dram), 43),
        (catalog::composite(run, dram), 44),
    ];
    for (scenario, seed) in &cases {
        let host = || {
            ext_adversarial::build_host(
                *seed,
                Scale::Quick,
                scenario.faults,
                MachineScratch::default(),
            )
        };
        let want = catch_unwind(AssertUnwindSafe(|| {
            let (outcome, m) = run_scenario(host(), scenario, &cfg);
            (outcome, machine_digest(&m))
        }))
        .ok();
        let got = catch_unwind(AssertUnwindSafe(|| {
            let mut d = Driven::scenario(host(), scenario, &cfg);
            d.run(cfg.duration, &mut tracer(), &mut Counters::default())
                .expect("invariants hold");
            let (outcome, m) = d.finish_scenario();
            (outcome, machine_digest(&m))
        }))
        .ok();
        assert_eq!(got, want, "{} seed {seed}", scenario.name);
        // Ticked on its own, without the scoring, the host ends the same.
        let ticked = catch_unwind(AssertUnwindSafe(|| {
            let mut rt = scenario_runtime(host(), scenario, &cfg);
            let mut samples = Vec::new();
            run_timed(&mut rt, cfg.duration, &mut samples).expect("invariants hold");
            let mut m = rt.into_machine();
            m.clear_modulator();
            machine_digest(&m)
        }))
        .ok();
        assert_eq!(
            ticked,
            want.map(|(_, d)| d),
            "{} seed {seed}",
            scenario.name
        );
    }
}
