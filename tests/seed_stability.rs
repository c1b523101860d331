//! Seed-stability regression tests for the parallel fleet runner.
//!
//! The determinism contract the repro stands on: a fleet experiment is a
//! pure function of its experiment seed. Same seed ⇒ bit-identical
//! `FleetSummary` across runs, and a parallel run (`jobs=4`) is
//! bit-identical to the sequential one (`jobs=1`), because per-host
//! seeds derive from `(experiment_seed, host_index)` and results are
//! reduced in host-index order.

use tmo::fleet::{host_savings, summarize, FleetSummary, HostSavings};
use tmo::prelude::*;
use tmo::runner::{expect_all, FleetRunner};
use tmo_repro::{tmo, tmo_workload};

const FLEET_HOSTS: usize = 6;

/// A small heterogeneous fleet, cheap enough to run several times in
/// one test binary: per-host workload and backend vary with the index.
fn run_fleet(jobs: usize, experiment_seed: u64) -> (Vec<HostSavings>, FleetSummary) {
    let runner = FleetRunner::new(jobs);
    let (hosts, _) = runner.run_collect_seeded(experiment_seed, FLEET_HOSTS, |host| {
        let server = ByteSize::from_mib(128);
        let swap = if host.index % 2 == 0 {
            SwapKind::Zswap {
                capacity_fraction: 0.3,
                allocator: ZswapAllocator::Zsmalloc,
            }
        } else {
            SwapKind::Ssd(SsdModel::C)
        };
        let mut machine = Machine::new(MachineConfig {
            dram: server,
            swap,
            seed: host.seed,
            ..MachineConfig::default()
        });
        let profile = if host.index < 3 {
            tmo_workload::apps::feed()
        } else {
            tmo_workload::apps::cache_a()
        };
        machine.add_container(&profile.with_mem_total(server.mul_f64(0.5)));
        let mut rt = TmoRuntime::with_senpai(machine, SenpaiConfig::accelerated(40.0));
        rt.run(SimDuration::from_mins(2));
        host_savings(rt.machine())
    });
    let hosts = expect_all(hosts);
    let summary = summarize(&hosts);
    (hosts, summary)
}

/// Bitwise equality for the f64 aggregates — `==` would also accept
/// `0.0 == -0.0`, which is weaker than the contract we promise.
fn assert_bit_identical(a: &FleetSummary, b: &FleetSummary) {
    assert_eq!(a.total_fraction.to_bits(), b.total_fraction.to_bits());
    assert_eq!(a.workload_fraction.to_bits(), b.workload_fraction.to_bits());
    assert_eq!(
        a.datacenter_tax_fraction.to_bits(),
        b.datacenter_tax_fraction.to_bits()
    );
    assert_eq!(
        a.microservice_tax_fraction.to_bits(),
        b.microservice_tax_fraction.to_bits()
    );
    assert_eq!(a.hosts, b.hosts);
}

#[test]
fn same_seed_same_summary_across_runs() {
    let (hosts_a, summary_a) = run_fleet(2, 7001);
    let (hosts_b, summary_b) = run_fleet(2, 7001);
    assert_eq!(hosts_a, hosts_b, "per-host savings must be reproducible");
    assert_bit_identical(&summary_a, &summary_b);
}

#[test]
fn parallel_jobs4_bit_identical_to_sequential_jobs1() {
    let (hosts_seq, summary_seq) = run_fleet(1, 7002);
    let (hosts_par, summary_par) = run_fleet(4, 7002);
    assert_eq!(
        hosts_seq, hosts_par,
        "sharding must not change any host's result"
    );
    assert_bit_identical(&summary_seq, &summary_par);
    // The fleet actually did something; we are not comparing zeros.
    assert!(summary_seq.total_fraction > 0.0);
    assert_eq!(summary_seq.hosts, FLEET_HOSTS);
}

#[test]
fn different_experiment_seeds_diverge() {
    let (hosts_a, _) = run_fleet(4, 7003);
    let (hosts_b, _) = run_fleet(4, 7004);
    assert_ne!(
        hosts_a, hosts_b,
        "the experiment seed must actually drive the simulation"
    );
}

/// Satellite of the shard-chunked runner: a fleet three orders of
/// magnitude larger than the 6-host smoke above, swept across worker
/// counts that straddle the shard plan's interesting regimes (1 = the
/// inline path, 3 = uneven shard/worker ratio, 8 = more workers than a
/// small machine has cores). `exact()` bypasses the core clamp so the
/// real multi-worker merge path runs everywhere, including CI's
/// single-core boxes. Promoted to a hard release-mode gate in
/// `scripts/ci.sh`.
#[test]
fn thousand_host_fleet_is_bit_identical_across_jobs() {
    const SWEEP_HOSTS: usize = 1_000;
    const SWEEP_SEED: u64 = 7100;
    let run = |jobs: usize| {
        let (outcomes, stats) = FleetRunner::exact(jobs).run_collect_seeded_sharded(
            SWEEP_SEED,
            SWEEP_HOSTS,
            tmo_experiments::ext_paper_scale::run_host,
        );
        let hosts = expect_all(outcomes);
        let summary = summarize(&hosts);
        (hosts, summary, stats)
    };
    let (hosts_base, summary_base, _) = run(1);
    assert_eq!(hosts_base.len(), SWEEP_HOSTS);
    assert!(
        summary_base.total_fraction > 0.0,
        "fleet must actually save"
    );
    for jobs in [3usize, 8] {
        let (hosts, summary, stats) = run(jobs);
        assert_eq!(
            hosts_base, hosts,
            "jobs={jobs} changed a host result at 1k-host scale"
        );
        assert_bit_identical(&summary_base, &summary);
        assert_eq!(stats.jobs, jobs, "exact() must not clamp");
        assert!(
            stats.shards > 1,
            "a 1k-host fleet must actually be chunked (got {} shard)",
            stats.shards
        );
    }
}

#[test]
fn host_seed_mapping_is_stable_and_documented() {
    // The seed→host mapping is part of the public contract (EXPERIMENTS
    // .md documents it): host i runs with derive_host_seed(seed, i).
    for index in 0..FLEET_HOSTS {
        assert_eq!(
            FleetRunner::host_seed(7005, index),
            tmo_repro::tmo_sim::derive_host_seed(7005, index as u64),
        );
    }
    // Pinned values: changing the derivation silently would reseed every
    // experiment in the repo, so lock it down.
    assert_eq!(
        FleetRunner::host_seed(900, 0),
        tmo_repro::tmo_sim::derive_host_seed(900, 0)
    );
    assert_ne!(
        FleetRunner::host_seed(900, 0),
        FleetRunner::host_seed(900, 1)
    );
    assert_ne!(
        FleetRunner::host_seed(900, 0),
        FleetRunner::host_seed(901, 0)
    );
}
