//! Fleet-level aggregation.
//!
//! The paper's headline numbers are fleet aggregates: 20–32% of total
//! memory saved across millions of servers, of which 7–19% comes from
//! application containers and ~13% from the memory tax (Figures 9 and
//! 10). This module aggregates per-machine results into those shapes.

use tmo_sim::ByteSize;

use crate::container::ContainerId;
use crate::machine::Machine;

/// Savings attribution for one host.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HostSavings {
    /// Total server memory.
    pub server_mem: ByteSize,
    /// DRAM freed from workload containers.
    pub workload_saved: ByteSize,
    /// DRAM freed from datacenter-tax containers.
    pub datacenter_tax_saved: ByteSize,
    /// DRAM freed from microservice-tax containers.
    pub microservice_tax_saved: ByteSize,
}

impl HostSavings {
    /// Total saved bytes.
    pub fn total_saved(&self) -> ByteSize {
        self.workload_saved + self.datacenter_tax_saved + self.microservice_tax_saved
    }

    /// Total savings as a fraction of server memory.
    pub fn total_fraction(&self) -> f64 {
        self.total_saved() / self.server_mem
    }
}

/// Classifies a container as workload / datacenter tax / microservice
/// tax by its profile name and sums each class's *net* savings (for
/// zswap backends the compressed pool cost is already deducted).
pub fn host_savings(machine: &Machine) -> HostSavings {
    let mut out = HostSavings {
        server_mem: machine.mm().global_stat().total_dram,
        ..HostSavings::default()
    };
    for id in machine.container_ids() {
        let saved = machine.net_savings_bytes(id);
        match machine.container(id).name() {
            "Datacenter Tax" => out.datacenter_tax_saved += saved,
            "Microservice Tax" => out.microservice_tax_saved += saved,
            _ => out.workload_saved += saved,
        }
    }
    out
}

/// Aggregates many hosts into fleet-mean fractions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetSummary {
    /// Mean total savings fraction.
    pub total_fraction: f64,
    /// Mean workload savings fraction.
    pub workload_fraction: f64,
    /// Mean datacenter-tax savings fraction.
    pub datacenter_tax_fraction: f64,
    /// Mean microservice-tax savings fraction.
    pub microservice_tax_fraction: f64,
    /// Number of hosts aggregated.
    pub hosts: usize,
}

/// Averages host savings over a fleet. Returns the default (zero)
/// summary for an empty slice.
pub fn summarize(hosts: &[HostSavings]) -> FleetSummary {
    if hosts.is_empty() {
        return FleetSummary::default();
    }
    let n = hosts.len() as f64;
    FleetSummary {
        total_fraction: hosts.iter().map(HostSavings::total_fraction).sum::<f64>() / n,
        workload_fraction: hosts
            .iter()
            .map(|h| h.workload_saved / h.server_mem)
            .sum::<f64>()
            / n,
        datacenter_tax_fraction: hosts
            .iter()
            .map(|h| h.datacenter_tax_saved / h.server_mem)
            .sum::<f64>()
            / n,
        microservice_tax_fraction: hosts
            .iter()
            .map(|h| h.microservice_tax_saved / h.server_mem)
            .sum::<f64>()
            / n,
        hosts: hosts.len(),
    }
}

/// Per-container savings normalised to the container's own resident
/// footprint, split by what was offloaded — the Figure 9 bar for one
/// application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSavings {
    /// Application name.
    pub name: String,
    /// Anonymous savings fraction (of initial resident size).
    pub anon_fraction: f64,
    /// File-backed savings fraction.
    pub file_fraction: f64,
}

impl AppSavings {
    /// Total savings fraction.
    pub fn total(&self) -> f64 {
        self.anon_fraction + self.file_fraction
    }
}

/// Computes the Figure 9 bar for one container: net DRAM freed (anon
/// offload minus zswap pool cost, plus evicted file cache) normalised to
/// the initial resident footprint.
pub fn app_savings(machine: &Machine, id: ContainerId) -> AppSavings {
    let c = machine.container(id);
    let stat = machine.mm().cgroup_stat(c.cgroup());
    let page = machine.config().page_size;
    let initial = ByteSize::new(machine.container(id).profile().mem_total.as_u64().max(1));
    let offloaded = stat.anon_offloaded.to_bytes(page);
    let anon_net = match machine.mm().swap_kind() {
        Some(tmo_backends::BackendKind::Zswap) => {
            offloaded.saturating_sub(offloaded.mul_f64(1.0 / c.profile().compress_ratio.max(1.0)))
        }
        _ => offloaded,
    };
    let file = stat.file_evicted.to_bytes(page);
    AppSavings {
        name: c.name().to_string(),
        anon_fraction: anon_net / initial,
        file_fraction: file / initial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(server_gib: u64, work: u64, dc: u64, micro: u64) -> HostSavings {
        HostSavings {
            server_mem: ByteSize::from_gib(server_gib),
            workload_saved: ByteSize::from_gib(work),
            datacenter_tax_saved: ByteSize::from_gib(dc),
            microservice_tax_saved: ByteSize::from_gib(micro),
        }
    }

    #[test]
    fn host_fractions() {
        let h = host(100, 10, 9, 4);
        assert!((h.total_fraction() - 0.23).abs() < 1e-9);
    }

    #[test]
    fn summarize_averages() {
        let summary = summarize(&[host(100, 10, 9, 4), host(100, 20, 9, 4)]);
        assert_eq!(summary.hosts, 2);
        assert!((summary.workload_fraction - 0.15).abs() < 1e-9);
        assert!((summary.datacenter_tax_fraction - 0.09).abs() < 1e-9);
        assert!((summary.total_fraction - 0.28).abs() < 1e-9);
    }

    #[test]
    fn empty_fleet_is_zero() {
        let summary = summarize(&[]);
        assert_eq!(summary.hosts, 0);
        assert_eq!(summary.total_fraction, 0.0);
    }

    #[test]
    fn app_savings_total_sums_parts() {
        let s = AppSavings {
            name: "x".into(),
            anon_fraction: 0.08,
            file_fraction: 0.05,
        };
        assert!((s.total() - 0.13).abs() < 1e-12);
    }

    #[test]
    fn zero_server_mem_host_yields_zero_fractions_not_nan() {
        // A host whose MM reports no DRAM (e.g. a misconfigured or
        // still-provisioning machine) must not poison fleet means.
        let degenerate = HostSavings {
            server_mem: ByteSize::ZERO,
            workload_saved: ByteSize::from_mib(64),
            datacenter_tax_saved: ByteSize::from_mib(8),
            microservice_tax_saved: ByteSize::ZERO,
        };
        assert_eq!(degenerate.total_fraction(), 0.0);
        let summary = summarize(&[degenerate, host(100, 10, 9, 4)]);
        assert!(summary.total_fraction.is_finite());
        assert!((summary.total_fraction - 0.23 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_host_summarize_is_that_hosts_fractions() {
        let h = host(128, 16, 8, 4);
        let summary = summarize(&[h]);
        assert_eq!(summary.hosts, 1);
        assert_eq!(summary.total_fraction, h.total_fraction());
        assert_eq!(summary.workload_fraction, h.workload_saved / h.server_mem);
        assert_eq!(
            summary.datacenter_tax_fraction,
            h.datacenter_tax_saved / h.server_mem
        );
        assert_eq!(
            summary.microservice_tax_fraction,
            h.microservice_tax_saved / h.server_mem
        );
    }

    fn offloading_machine(swap: crate::machine::SwapKind) -> (Machine, ContainerId) {
        use tmo_workload::apps;
        let dram = ByteSize::from_mib(128);
        let mut machine = Machine::new(crate::machine::MachineConfig {
            dram,
            swap,
            seed: 4242,
            ..crate::machine::MachineConfig::default()
        });
        let id = machine.add_container(&apps::feed().with_mem_total(ByteSize::from_mib(64)));
        let runtime = crate::runtime::TmoRuntime::with_senpai(
            machine,
            tmo_senpai::SenpaiConfig::accelerated(40.0),
        );
        let mut runtime = runtime;
        runtime.run(tmo_sim::SimDuration::from_mins(2));
        (runtime.into_machine(), id)
    }

    #[test]
    fn app_savings_deducts_zswap_pool_cost() {
        let (machine, id) = offloading_machine(crate::machine::SwapKind::Zswap {
            capacity_fraction: 0.3,
            allocator: tmo_backends::ZswapAllocator::Zsmalloc,
        });
        let c = machine.container(id);
        let stat = machine.mm().cgroup_stat(c.cgroup());
        let page = machine.config().page_size;
        let offloaded = stat.anon_offloaded.to_bytes(page);
        assert!(offloaded > ByteSize::ZERO, "senpai offloaded something");
        let initial = c.profile().mem_total;
        let ratio = c.profile().compress_ratio;
        assert!(ratio > 1.0);
        // Net accounting: the compressed pool still occupies
        // offloaded/ratio bytes of DRAM, so only the remainder counts.
        let expected = offloaded.saturating_sub(offloaded.mul_f64(1.0 / ratio)) / initial;
        let savings = app_savings(&machine, id);
        assert!(
            (savings.anon_fraction - expected).abs() < 1e-12,
            "anon {} vs expected {}",
            savings.anon_fraction,
            expected
        );
        // The deduction is material: strictly less than gross offload.
        assert!(savings.anon_fraction < offloaded / initial);
    }

    #[test]
    fn app_savings_counts_gross_offload_on_ssd() {
        let (machine, id) =
            offloading_machine(crate::machine::SwapKind::Ssd(tmo_backends::SsdModel::C));
        let c = machine.container(id);
        let stat = machine.mm().cgroup_stat(c.cgroup());
        let page = machine.config().page_size;
        let offloaded = stat.anon_offloaded.to_bytes(page);
        assert!(offloaded > ByteSize::ZERO, "senpai offloaded something");
        let savings = app_savings(&machine, id);
        let expected = offloaded / c.profile().mem_total;
        assert!(
            (savings.anon_fraction - expected).abs() < 1e-12,
            "ssd pages cost no DRAM: anon {} vs gross {}",
            savings.anon_fraction,
            expected
        );
    }
}
