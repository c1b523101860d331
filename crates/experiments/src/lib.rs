//! Reproductions of the TMO paper's evaluation figures.
//!
//! Each `figNN` module regenerates one figure/table of the paper:
//! the same rows or time series, produced by the simulated stack. The
//! [`report`] module renders them as text tables and CSV; the `repro`
//! binary is the command-line entry point:
//!
//! ```text
//! repro --figure 9          # one figure
//! repro --all               # everything
//! repro --all --quick       # reduced scale (used by tests/benches)
//! repro --figure 12 --csv out/   # export raw series
//! ```
//!
//! | Module | Paper figure | What it shows |
//! |---|---|---|
//! | [`fig01`] | Figure 1 | hardware cost model across generations |
//! | [`fig02`] | Figure 2 | application memory coldness |
//! | [`fig03`] | Figure 3 | datacenter / microservice memory tax |
//! | [`fig04`] | Figure 4 | anonymous vs file-backed breakdown |
//! | [`fig05`] | Figure 5 | fleet SSD characteristics |
//! | [`fig06`] | Figure 6 | architecture overview (live walkthrough) |
//! | [`fig07`] | Figure 7 | PSI some/full worked example |
//! | [`fig08`] | Figure 8 | Senpai pressure tracking & reclaim tuning |
//! | [`fig09`] | Figure 9 | per-application memory savings |
//! | [`fig10`] | Figure 10 | memory-tax savings |
//! | [`fig11`] | Figure 11 | Web on memory-bound hosts (3 phases) |
//! | [`fig12`] | Figure 12 | PSI vs promotion rate, fast vs slow SSD |
//! | [`fig13`] | Figure 13 | Senpai config A vs config B tuning |
//! | [`fig14`] | Figure 14 | swap write regulation |
//! | [`ablate`] | §3.3/§3.4 | design-choice ablations |
//! | [`ext_tiered`] | §5.2 | tiered backend hierarchy extension |
//! | [`ext_sweep`] | §4.4 | Senpai tuning sweep (savings/RPS frontier) |
//! | [`ext_chaos`] | §4.5/§5.2 | fault-injection degradation curves |
//! | [`ext_adversarial`] | §2.2/§4.4 | adversarial scenario replay, SLO scoring, blame |
//! | [`ext_blame_validation`] | §6 | blame ground truth: causal vs pro-rata attribution |
//! | [`ext_paper_scale`] | §4 (fleet scale) | shard-chunked harness scaling laws |
//! | [`headline`] | abstract | fleet-wide 20-32% savings rollup |

pub mod ablate;
pub mod ext_adversarial;
pub mod ext_blame_validation;
pub mod ext_chaos;
pub mod ext_paper_scale;
pub mod ext_sweep;
pub mod ext_tiered;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod headline;
pub mod report;

pub use report::{ExperimentOutput, Scale};
pub use tmo::runner::{FleetError, FleetRunner, FleetStats, HostCtx};

/// Runs one experiment by figure number, sized to the machine. Returns
/// `None` for numbers the paper does not define.
pub fn run_figure(figure: u32, scale: Scale) -> Option<ExperimentOutput> {
    run_figure_with(&FleetRunner::new(0), figure, scale)
}

/// Runs one experiment by figure number on the given runner. Multi-host
/// figures shard across the runner's workers; single-machine figures
/// ignore it. Returns `None` for numbers the paper does not define
/// (6 is the architecture diagram).
pub fn run_figure_with(
    runner: &FleetRunner,
    figure: u32,
    scale: Scale,
) -> Option<ExperimentOutput> {
    Some(match figure {
        1 => fig01::run(),
        2 => fig02::run_with(runner, scale),
        3 => fig03::run(scale),
        4 => fig04::run(scale),
        5 => fig05::run(),
        6 => fig06::run(scale),
        7 => fig07::run(),
        8 => fig08::run(scale),
        9 => fig09::run_with(runner, scale),
        10 => fig10::run(scale),
        11 => fig11::run_with(runner, scale),
        12 => fig12::run(scale),
        13 => fig13::run_with(runner, scale),
        14 => fig14::run_with(runner, scale),
        _ => return None,
    })
}

/// All reproducible figure numbers in order.
pub const ALL_FIGURES: [u32; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14];

/// The named (non-figure) experiments, for `--experiment NAME`.
/// `ablate` runs under `--ablations` / `--all` and the
/// [`EXTENSIONS`] under `--extensions` / `--all`. The other two run
/// only when named: `ext_blame_validation` replays every planted case
/// twice, and `ext_paper_scale` is wall-clock-bound (it measures the
/// harness itself, sweeping its own worker counts).
pub const NAMED_EXPERIMENTS: [&str; 8] = [
    "ablate",
    "ext_tiered",
    "ext_sweep",
    "ext_chaos",
    "ext_adversarial",
    "ext_blame_validation",
    "headline",
    "ext_paper_scale",
];

/// The named experiments `--extensions` / `--all` run, in this order.
pub const EXTENSIONS: [&str; 5] = [
    "ext_tiered",
    "ext_sweep",
    "ext_chaos",
    "ext_adversarial",
    "headline",
];

/// Runs one named experiment on the given runner. Returns `None` for
/// names not in [`NAMED_EXPERIMENTS`].
pub fn run_named_with(runner: &FleetRunner, name: &str, scale: Scale) -> Option<ExperimentOutput> {
    Some(match name {
        "ablate" => ablate::run_with(runner, scale),
        "ext_tiered" => ext_tiered::run_with(runner, scale),
        "ext_sweep" => ext_sweep::run_with(runner, scale),
        "ext_chaos" => ext_chaos::run_with(runner, scale),
        "ext_adversarial" => ext_adversarial::run_with(runner, scale),
        "ext_blame_validation" => ext_blame_validation::run_with(runner, scale),
        "headline" => headline::run_with(runner, scale),
        // Sweeps its own worker counts; the CLI runner is unused.
        "ext_paper_scale" => ext_paper_scale::run(scale),
        _ => return None,
    })
}

/// One-line description of a figure experiment, for `repro --list`.
pub fn figure_description(figure: u32) -> Option<&'static str> {
    Some(match figure {
        1 => "hardware cost model across server generations",
        2 => "application memory coldness CDF",
        3 => "datacenter / microservice memory tax",
        4 => "anonymous vs file-backed memory breakdown",
        5 => "fleet SSD latency/bandwidth characteristics",
        6 => "architecture overview as a live walkthrough",
        7 => "PSI some/full pressure worked example",
        8 => "Senpai pressure tracking and reclaim tuning",
        9 => "per-application memory savings",
        10 => "memory-tax savings from offloading sidecars",
        11 => "Web on memory-bound hosts, three deployment phases",
        12 => "PSI vs promotion rate on fast vs slow SSDs",
        13 => "Senpai config A vs config B RPS/savings tradeoff",
        14 => "swap write regulation under endurance limits",
        _ => return None,
    })
}

/// One-line description of a named experiment, for `repro --list`.
pub fn experiment_description(name: &str) -> Option<&'static str> {
    Some(match name {
        "ablate" => "design-choice ablations (PSI flavors, policies, backends)",
        "ext_tiered" => "tiered zswap+SSD backend hierarchy extension",
        "ext_sweep" => "Senpai tuning sweep: savings vs RPS frontier",
        "ext_chaos" => "fault-injection degradation curves over chaos intensity",
        "ext_adversarial" => "adversarial scenario replay: SLO scores, blame, A/B harness",
        "ext_blame_validation" => "blame ground truth: causal vs pro-rata attribution precision",
        "headline" => "fleet-wide 20-32% savings headline rollup",
        "ext_paper_scale" => "shard-chunked fleet-runner scaling laws (wall-clock bound)",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extensions_are_documented_named_experiments() {
        for name in EXTENSIONS {
            assert!(NAMED_EXPERIMENTS.contains(&name), "{name}");
            assert!(experiment_description(name).is_some(), "{name}");
        }
    }
}
