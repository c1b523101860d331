//! The headline number: fleet-wide memory savings.
//!
//! The abstract's claim — "TMO ... has saved between 20-32% of the total
//! memory across millions of servers", attributed as "about 7-19% of the
//! savings come from the application containers, while about 13% ...
//! from the sidecar containers" — is a fleet aggregate over hosts running
//! different primary workloads, each with the datacenter and
//! microservice tax sidecars. This experiment synthesises such a fleet
//! (hosts sharded across a [`FleetRunner`]), runs every host under the
//! production-style controller, and rolls the savings up the way §4.1
//! does.

use tmo::fleet::{host_savings, summarize, FleetSummary, HostSavings};
use tmo::prelude::*;
use tmo::runner::{expect_all, FleetRunner, FleetStats};

use crate::report::{pct, ExperimentOutput, Scale};

/// Experiment-level seed; host `i` runs with
/// `FleetRunner::host_seed(EXPERIMENT_SEED, i)`.
pub const EXPERIMENT_SEED: u64 = 900;

/// The primary workloads spread across the fleet (a representative mix
/// of the paper's applications, zswap- and SSD-suited).
fn fleet_mix() -> Vec<(AppProfile, bool)> {
    tmo_workload::apps::figure9_apps()
}

/// Provisions and runs one fleet host: the primary workload at ~45% of
/// DRAM plus both tax sidecars (relaxed SLA), under accelerated
/// production Senpai.
pub fn run_host(workload: &AppProfile, zswap: bool, seed: u64, scale: Scale) -> HostSavings {
    let server = ByteSize::from_mib(scale.dram_mib());
    let swap = if zswap {
        SwapKind::Zswap {
            capacity_fraction: 0.25,
            allocator: ZswapAllocator::Zsmalloc,
        }
    } else {
        SwapKind::Ssd(SsdModel::E)
    };
    let mut machine = Machine::new(MachineConfig {
        dram: server,
        swap,
        seed,
        ..MachineConfig::default()
    });
    machine.add_container(&workload.with_mem_total(server.mul_f64(0.45)));
    machine.add_container_with(
        &tax::datacenter_tax(server),
        ContainerConfig {
            relaxed: true,
            ..ContainerConfig::default()
        },
    );
    machine.add_container_with(
        &tax::microservice_tax(server),
        ContainerConfig {
            relaxed: true,
            ..ContainerConfig::default()
        },
    );
    let mut rt = tmo::TmoRuntime::with_senpai(machine, SenpaiConfig::accelerated(scale.speedup()));
    rt.run(SimDuration::from_mins(scale.minutes().max(5)));
    host_savings(rt.machine())
}

/// Runs the whole fleet on the given runner and aggregates. Output is
/// bit-identical for any worker count.
pub fn simulate_with(runner: &FleetRunner, scale: Scale) -> (Vec<HostSavings>, FleetSummary) {
    let (hosts, _, summary) = simulate_with_stats(runner, scale);
    (hosts, summary)
}

fn simulate_with_stats(
    runner: &FleetRunner,
    scale: Scale,
) -> (Vec<HostSavings>, FleetStats, FleetSummary) {
    let mix = fleet_mix();
    let (outcomes, stats) = runner.run_collect_seeded(EXPERIMENT_SEED, mix.len(), |host| {
        let (profile, zswap) = &mix[host.index];
        run_host(profile, *zswap, host.seed, scale)
    });
    let hosts = expect_all(outcomes);
    let summary = summarize(&hosts);
    (hosts, stats, summary)
}

/// Runs the whole fleet and aggregates, sized to the machine.
pub fn simulate(scale: Scale) -> (Vec<HostSavings>, FleetSummary) {
    simulate_with(&FleetRunner::default(), scale)
}

/// Regenerates the headline table, sized to the machine.
pub fn run(scale: Scale) -> ExperimentOutput {
    run_with(&FleetRunner::default(), scale)
}

/// Regenerates the headline table on the given runner.
pub fn run_with(runner: &FleetRunner, scale: Scale) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "headline",
        "Fleet-wide savings rollup (abstract: 20-32% of total memory)",
    );
    let (hosts, stats, summary) = simulate_with_stats(runner, scale);
    out.line(format!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "Host", "workload", "dc-tax", "micro-tax", "total"
    ));
    for (host, (profile, _)) in hosts.iter().zip(fleet_mix()) {
        out.line(format!(
            "{:<12} {:>10} {:>10} {:>10} {:>10}",
            profile.name,
            pct(host.workload_saved / host.server_mem),
            pct(host.datacenter_tax_saved / host.server_mem),
            pct(host.microservice_tax_saved / host.server_mem),
            pct(host.total_fraction()),
        ));
    }
    out.line(String::new());
    out.line(format!(
        "fleet mean: workload {} + taxes {} = {} of server memory",
        pct(summary.workload_fraction),
        pct(summary.datacenter_tax_fraction + summary.microservice_tax_fraction),
        pct(summary.total_fraction),
    ));
    out.line(
        "paper: 7-19% from applications + ~13% from the memory tax = 20-32% total".to_string(),
    );
    // Shard timings are diagnostics, not results: they go to stderr so
    // stdout stays bit-identical for every worker count.
    eprintln!("{}", stats.summary_line());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_rollup_reaches_the_headline_band() {
        let (hosts, summary) = simulate_with(&FleetRunner::new(4), Scale::Quick);
        assert_eq!(hosts.len(), fleet_mix().len());
        // Every host saved something from both the workload and the tax.
        for host in &hosts {
            assert!(host.workload_saved > ByteSize::ZERO);
            assert!(host.datacenter_tax_saved > ByteSize::ZERO);
        }
        // The fleet mean lands in (or reasonably near) the paper's
        // 20-32% headline band at this reduced scale.
        assert!(
            summary.total_fraction > 0.08,
            "fleet total {}",
            summary.total_fraction
        );
        assert!(
            summary.total_fraction < 0.45,
            "fleet total {}",
            summary.total_fraction
        );
        // Tax and workload both contribute, tax being a material share.
        let tax = summary.datacenter_tax_fraction + summary.microservice_tax_fraction;
        assert!(tax > 0.02, "tax share {tax}");
        assert!(summary.workload_fraction > 0.02);
    }
}
