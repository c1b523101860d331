//! The three workloads: their set-up, one repetition, and the checks on
//! its outputs. README.md says why each was chosen.

use std::path::Path;
use std::time::{Duration, Instant};

use tmo::prelude::*;
use tmo::{FleetError, HostOutcome};
use tmo_experiments::{ext_adversarial, headline, run_figure_with, Scale, ALL_FIGURES};
use tmo_scenarios::prelude::*;

use crate::host::{
    check_invariants, machine_digest, run_timed, scenario_runtime, Counters, Driven, SimResult,
};
use crate::report::Steps;
use crate::stats::Digest;
use crate::trace::{layer, LayerTotals, Span, Tracer};

/// Hosts in one `fleet_zswap` repetition.
pub const FLEET_HOSTS: usize = 512;
/// DRAM of one `fleet_zswap` host.
pub const FLEET_DRAM_MIB: u64 = 256;
/// Simulated time per `fleet_zswap` host: 3000 ticks of 100 ms.
pub const FLEET_SECS: u64 = 300;
/// Senpai time compression for 256 MiB hosts (the `Scale::Quick` pairing).
pub const FLEET_SPEEDUP: f64 = 40.0;
/// Hosts re-run on one worker to check jobs-invariance.
pub const FLEET_PREFIX: usize = 32;
/// How the message of a panic `FaultConfig` injects begins.
pub const INJECTED_PANIC: &str = "injected host panic";
/// Hosts per scenario in one `scenario_chaos` repetition.
pub const CHAOS_HOSTS_PER_SCENARIO: usize = 16;
/// Hosts per scenario ticked again on their own for `tick_us_*` on
/// `scenario_chaos`; more than one, because the composite scenario's
/// tick cost varies with the host seed.
pub const CHAOS_TICKED_PER_SCENARIO: usize = 2;
/// Hosts whose spans are written out after a traced run.
pub const KEEP_SPAN_HOSTS: usize = 2;
/// Hosts in the `figure_suite` probe fleet.
pub const PROBE_HOSTS: usize = 8;
/// Seed of the `figure_suite` probe fleet: the headline experiment's
/// pinned seed.
pub const PROBE_EXPERIMENT_SEED: u64 = headline::EXPERIMENT_SEED;

/// A workload, by the name the command line and reports use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many small zswap hosts through `FleetRunner`.
    FleetZswap,
    /// 1 GiB adversarial hosts through every scenario.
    ScenarioChaos,
    /// Figures 1–14 at paper scale.
    FigureSuite,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetZswap,
        Workload::ScenarioChaos,
        Workload::FigureSuite,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetZswap => "fleet_zswap",
            Workload::ScenarioChaos => "scenario_chaos",
            Workload::FigureSuite => "figure_suite",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The inputs of a workload, built once per set-up.
#[derive(Debug)]
pub enum Plan {
    /// `fleet_zswap`: host `i` runs `apps[i % apps.len()]`.
    Fleet {
        /// Run seed; host seeds derive from it.
        seed: u64,
        /// The rotated applications.
        apps: Vec<AppProfile>,
    },
    /// `scenario_chaos`: host `i` runs `scenarios[i % scenarios.len()]`.
    Chaos {
        /// Run seed; host seeds derive from it.
        seed: u64,
        /// `catalog::all` then `catalog::extended`.
        scenarios: Vec<Scenario>,
        /// Controller and scoring config.
        cfg: ScenarioRunConfig,
    },
    /// `figure_suite`: the pinned output of each figure, in order.
    Figures {
        /// `render()` plus the separating newline, per figure.
        golden: Vec<String>,
    },
}

/// Builds a fleet-shaped host: the application at 45% of DRAM plus the
/// datacenter and microservice tax sidecars, on zswap.
pub fn fleet_machine(
    dram_mib: u64,
    app: &AppProfile,
    seed: u64,
    scratch: MachineScratch,
) -> Machine {
    let dram = ByteSize::from_mib(dram_mib);
    let mut m = Machine::with_scratch(
        MachineConfig {
            dram,
            swap: SwapKind::Zswap {
                capacity_fraction: 0.25,
                allocator: ZswapAllocator::Zsmalloc,
            },
            seed,
            ..MachineConfig::default()
        },
        scratch,
    );
    m.add_container(&app.with_mem_total(dram.mul_f64(0.45)));
    for tax in [tax::datacenter_tax(dram), tax::microservice_tax(dram)] {
        m.add_container_with(
            &tax,
            ContainerConfig {
                relaxed: true,
                ..ContainerConfig::default()
            },
        );
    }
    m
}

/// Splits `repro --all` output into its `== ... ==` sections and
/// returns figures 1–14 in order.
pub fn figure_sections(text: &str) -> Result<Vec<String>, String> {
    let mut starts: Vec<usize> = text.match_indices("\n== ").map(|(i, _)| i + 1).collect();
    if text.starts_with("== ") {
        starts.insert(0, 0);
    }
    starts.push(text.len());
    ALL_FIGURES
        .iter()
        .map(|f| {
            let header = format!("== figure-{f:02} ");
            starts
                .windows(2)
                .find(|w| text[w[0]..].starts_with(&header))
                .map(|w| text[w[0]..w[1]].to_string())
                .ok_or_else(|| format!("no `{header}` section in the pinned output"))
        })
        .collect()
}

impl Plan {
    /// Builds the workload's inputs and warms the allocator with one
    /// host of each shape the timed part builds.
    pub fn new(workload: Workload, seed: u64, golden_path: &Path) -> Result<Plan, String> {
        match workload {
            Workload::FleetZswap => {
                let apps: Vec<AppProfile> = apps::figure9_apps()
                    .into_iter()
                    .map(|(app, _)| app)
                    .collect();
                for app in &apps {
                    drop(fleet_machine(
                        FLEET_DRAM_MIB,
                        app,
                        seed,
                        MachineScratch::default(),
                    ));
                }
                Ok(Plan::Fleet { seed, apps })
            }
            Workload::ScenarioChaos => {
                let run = ext_adversarial::run_duration(Scale::Paper);
                let dram = ByteSize::from_mib(Scale::Paper.dram_mib());
                let mut scenarios = catalog::all(run, dram);
                scenarios.extend(catalog::extended(run, dram));
                drop(ext_adversarial::build_host(
                    seed,
                    Scale::Paper,
                    None,
                    MachineScratch::default(),
                ));
                Ok(Plan::Chaos {
                    seed,
                    scenarios,
                    cfg: ext_adversarial::run_config(Scale::Paper, false),
                })
            }
            Workload::FigureSuite => {
                let text = std::fs::read_to_string(golden_path)
                    .map_err(|e| format!("reading {}: {e}", golden_path.display()))?;
                let golden = figure_sections(&text)?;
                drop(probe_machine(
                    PROBE_EXPERIMENT_SEED,
                    MachineScratch::default(),
                ));
                Ok(Plan::Figures { golden })
            }
        }
    }

    /// Units one repetition attempts: hosts, or figures plus probe hosts.
    pub fn units(&self) -> usize {
        match self {
            Plan::Fleet { .. } => FLEET_HOSTS,
            Plan::Chaos { scenarios, .. } => scenarios.len() * CHAOS_HOSTS_PER_SCENARIO,
            Plan::Figures { golden } => golden.len() + PROBE_HOSTS,
        }
    }
}

/// Everything one repetition produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host time of the timed part.
    pub wall: Duration,
    /// Digest of every output, in unit order.
    pub digest: u64,
    /// Per-unit digests (hosts, or figures then the probe).
    pub unit_digests: Vec<u64>,
    /// Units attempted.
    pub attempted: usize,
    /// Units that ran to the end (a host lost to an injected panic did not).
    pub completed: usize,
    /// Correctness failures, one line each.
    pub failures: Vec<String>,
    /// Host time of each `TmoRuntime::tick`, ns (untraced repetitions);
    /// emptied into `steps` when the repetition ends.
    pub samples: Vec<u32>,
    /// Summary of `samples`.
    pub steps: Steps,
    /// Simulated seconds stepped by driven hosts (the probe fleet on
    /// `figure_suite`).
    pub sim_s: f64,
    /// Host time the driven hosts took, for `sim_s_per_s`: `wall`, or the
    /// probe fleet's own time on `figure_suite`.
    pub driven_wall: Duration,
    /// Sum of per-host savings fractions.
    pub saved_sum: f64,
    /// Hosts with simulated results.
    pub sim_hosts: usize,
    /// Memory `some` seconds summed over containers.
    pub mem_some_s: f64,
    /// Container-seconds of simulated time.
    pub container_s: f64,
    /// Runner statistics of the driven hosts.
    pub fleet: Option<FleetStats>,
    /// Work counts.
    pub counters: Counters,
    /// Per-layer span totals (traced repetitions).
    pub layers: LayerTotals,
    /// Spans of the first hosts (traced repetitions).
    pub spans: Vec<Span>,
}

/// What one driven host hands back to the runner.
#[derive(Debug)]
struct HostOut {
    /// `machine` plus, for scenario hosts, the whole `ScenarioOutcome`.
    digest: u64,
    /// [`machine_digest`] of the end state.
    machine: u64,
    sim: SimResult,
    samples: Vec<u32>,
    counters: Counters,
    layers: LayerTotals,
    spans: Vec<Span>,
    violation: Option<String>,
}

impl HostOut {
    fn finish(
        m: &Machine,
        outcome: Option<&ScenarioOutcome>,
        samples: Vec<u32>,
        mut counters: Counters,
        violation: Option<String>,
    ) -> HostOut {
        counters.read_host_stats(m);
        let machine = machine_digest(m);
        let mut d = Digest::default();
        d.u64(machine);
        let digest = match outcome {
            Some(outcome) => {
                d.str(&format!("{outcome:?}"));
                d.value()
            }
            None => machine,
        };
        HostOut {
            digest,
            machine,
            sim: SimResult::of(m),
            samples,
            counters,
            layers: LayerTotals::default(),
            spans: Vec::new(),
            violation,
        }
    }

    /// Adds the spans of a traced host.
    fn traced(mut self, index: usize, tr: &Tracer) -> HostOut {
        tr.fold(&mut self.layers);
        if index < KEEP_SPAN_HOSTS {
            self.spans = tr.spans();
        }
        self
    }
}

impl Rep {
    /// Host time the driven hosts kept workers busy, s: the runner's
    /// summed worker busy time.
    pub fn driven_busy_s(&self) -> f64 {
        self.fleet
            .as_ref()
            .map_or(self.driven_wall, FleetStats::total_busy)
            .as_secs_f64()
    }

    fn add_host(&mut self, index: usize, outcome: HostOutcome<HostOut>, panics_injected: bool) {
        let h = match outcome {
            HostOutcome::Completed(h) => h,
            HostOutcome::Failed(e) => return self.add_panic(index, &e, panics_injected),
        };
        self.attempted += 1;
        self.completed += 1;
        let mut d = Digest::default();
        d.u64(h.digest);
        self.unit_digests.push(d.value());
        if let Some(v) = h.violation {
            self.failures
                .push(format!("host {index}: invariant broken {v}"));
        }
        self.samples.extend_from_slice(&h.samples);
        self.sim_s += h.sim.sim_s;
        self.saved_sum += h.sim.saved_frac;
        self.sim_hosts += 1;
        self.mem_some_s += h.sim.mem_some_s;
        self.container_s += h.sim.containers as f64 * h.sim.sim_s;
        self.counters.merge(&h.counters);
        self.layers.merge(&h.layers);
        self.spans.extend(h.spans);
    }

    /// Folds in host `index`, which panicked. Only `scenario_chaos`
    /// injects panics (`panics_injected`). There, a panic with the
    /// injected message is a simulated outcome: it is part of the digest,
    /// and the host only lowers `host_ok_frac`. Any other panic is a bug
    /// and fails the run.
    pub fn add_panic(&mut self, index: usize, e: &FleetError, panics_injected: bool) {
        self.attempted += 1;
        let mut d = Digest::default();
        d.str(&e.message);
        self.unit_digests.push(d.value());
        if !(panics_injected && e.message.starts_with(INJECTED_PANIC)) {
            self.failures
                .push(format!("host {index} panicked: {}", e.message));
        }
    }

    /// Folds in the tick times of host `index`, ticked on its own through
    /// [`scenario_runtime`], after checking that it ended as its
    /// `run_scenario` run `full` did.
    fn add_ticked(
        &mut self,
        index: usize,
        ticked: HostOutcome<HostOut>,
        full: &HostOutcome<HostOut>,
    ) {
        match (ticked, full) {
            (HostOutcome::Completed(t), HostOutcome::Completed(f)) => {
                if t.machine != f.machine {
                    self.failures.push(format!(
                        "host {index}: ticked alone, it ends unlike its run_scenario run"
                    ));
                }
                if let Some(v) = t.violation {
                    self.failures
                        .push(format!("host {index}: invariant broken {v}"));
                }
                self.samples.extend_from_slice(&t.samples);
            }
            (HostOutcome::Failed(a), HostOutcome::Failed(b)) if a.message == b.message => {}
            _ => self.failures.push(format!(
                "host {index}: ticked alone and through run_scenario, it does not fail alike"
            )),
        }
    }

    fn seal(&mut self) {
        self.steps = Steps::of(&mut self.samples);
        self.samples = Vec::new();
        let mut d = Digest::default();
        for &u in &self.unit_digests {
            d.u64(u);
        }
        self.digest = d.value();
    }
}

/// The `figure_suite` probe host: paper-scale and fleet-shaped, running
/// Feed.
pub fn probe_machine(seed: u64, scratch: MachineScratch) -> Machine {
    fleet_machine(Scale::Paper.dram_mib(), &apps::feed(), seed, scratch)
}

impl Plan {
    /// Runs one repetition on `runner`. Without `epoch`, hosts run
    /// through the program's own loops and each tick is timed. With it,
    /// hosts run through the traced step loop and spans are recorded
    /// against it.
    pub fn rep(&self, runner: &FleetRunner, epoch: Option<Instant>) -> Rep {
        self.rep_hosts(runner, epoch, self.units())
    }

    /// Runs the first `hosts` hosts of a driven workload's repetition
    /// (the jobs-invariance check re-runs a prefix on one worker).
    pub fn rep_hosts(&self, runner: &FleetRunner, epoch: Option<Instant>, hosts: usize) -> Rep {
        let mut rep = Rep::default();
        let start = Instant::now();
        match self {
            Plan::Fleet { seed, apps } => {
                let shape = FleetShape {
                    dram_mib: FLEET_DRAM_MIB,
                    speedup: FLEET_SPEEDUP,
                    duration: SimDuration::from_secs(FLEET_SECS),
                };
                let (outs, stats) =
                    runner.run_collect_seeded_sharded(*seed, hosts, |ctx, arena| {
                        shape.drive(&apps[ctx.index % apps.len()], ctx, arena, epoch)
                    });
                rep.wall = start.elapsed();
                for (i, o) in outs.into_iter().enumerate() {
                    rep.add_host(i, o, false);
                }
                rep.fleet = Some(stats);
                rep.driven_wall = rep.wall;
            }
            Plan::Chaos {
                seed,
                scenarios,
                cfg,
            } => {
                let build = |ctx: HostCtx, arena: &mut ShardArena| {
                    let scenario = &scenarios[ctx.index % scenarios.len()];
                    let m = ext_adversarial::build_host(
                        ctx.seed,
                        Scale::Paper,
                        scenario.faults,
                        arena.take_scratch(),
                    );
                    (m, scenario)
                };
                let (outs, stats) =
                    runner.run_collect_seeded_sharded(*seed, hosts, |ctx, arena| {
                        let Some(epoch) = epoch else {
                            let (m, scenario) = build(ctx, arena);
                            let (outcome, m) = run_scenario(m, scenario, cfg);
                            let violation = check_invariants(&m).err();
                            let out = HostOut::finish(
                                &m,
                                Some(&outcome),
                                Vec::new(),
                                Counters::default(),
                                violation,
                            );
                            arena.put_scratch(m.into_scratch());
                            return out;
                        };
                        let mut tr = Tracer::new(epoch, ctx.index);
                        tr.enter(layer::HOST);
                        tr.enter(layer::MACHINE_NEW);
                        let (m, scenario) = build(ctx, arena);
                        tr.exit();
                        let mut host = Driven::scenario(m, scenario, cfg);
                        let mut c = Counters::default();
                        let violation = host.run(cfg.duration, &mut tr, &mut c).err();
                        tr.exit();
                        let (outcome, m) = host.finish_scenario();
                        let out = HostOut::finish(&m, Some(&outcome), Vec::new(), c, violation)
                            .traced(ctx.index, &tr);
                        arena.put_scratch(m.into_scratch());
                        out
                    });
                rep.wall = start.elapsed();
                if epoch.is_none() {
                    // `run_scenario` cannot be timed tick by tick, so the
                    // first hosts of each scenario are ticked again on
                    // their own, outside `wall`, through the runtime
                    // `run_scenario` ticks.
                    let (ticked, _) = runner.run_collect_seeded_sharded(
                        *seed,
                        (scenarios.len() * CHAOS_TICKED_PER_SCENARIO).min(hosts),
                        |ctx, arena| {
                            let (m, scenario) = build(ctx, arena);
                            let mut rt = scenario_runtime(m, scenario, cfg);
                            let mut samples = Vec::new();
                            let violation = run_timed(&mut rt, cfg.duration, &mut samples).err();
                            let mut m = rt.into_machine();
                            m.clear_modulator();
                            let out =
                                HostOut::finish(&m, None, samples, Counters::default(), violation);
                            arena.put_scratch(m.into_scratch());
                            out
                        },
                    );
                    for (i, t) in ticked.into_iter().enumerate() {
                        rep.add_ticked(i, t, &outs[i]);
                    }
                }
                for (i, o) in outs.into_iter().enumerate() {
                    rep.add_host(i, o, true);
                }
                rep.fleet = Some(stats);
                rep.driven_wall = rep.wall;
            }
            Plan::Figures { golden } => {
                // Fourteen spans cost nothing, so the figures are always
                // traced.
                let mut tr = Tracer::new(epoch.unwrap_or(start), 0);
                for (i, &figure) in ALL_FIGURES.iter().enumerate() {
                    tr.enter(layer::FIGURE + i);
                    let out = run_figure_with(runner, figure, Scale::Paper)
                        .expect("every figure in ALL_FIGURES is defined");
                    tr.exit();
                    let text = format!("{}\n", out.render());
                    let mut d = Digest::default();
                    d.str(&text);
                    rep.unit_digests.push(d.value());
                    rep.attempted += 1;
                    if text == golden[i] {
                        rep.completed += 1;
                    } else {
                        rep.failures.push(format!(
                            "figure {figure}: output differs from docs/repro_output.txt"
                        ));
                    }
                }
                rep.wall = start.elapsed();
                tr.fold(&mut rep.layers);
                rep.spans = tr.spans();
                let shape = FleetShape {
                    dram_mib: Scale::Paper.dram_mib(),
                    speedup: Scale::Paper.speedup(),
                    duration: SimDuration::from_mins(Scale::Paper.minutes()),
                };
                let feed = apps::feed();
                let (outs, stats) = runner.run_collect_seeded_sharded(
                    PROBE_EXPERIMENT_SEED,
                    PROBE_HOSTS,
                    |ctx, arena| {
                        // Probe hosts are numbered from 1: host 0 is the figures.
                        let ctx = HostCtx {
                            index: ctx.index + 1,
                            ..ctx
                        };
                        shape.drive(&feed, ctx, arena, epoch)
                    },
                );
                for (i, o) in outs.into_iter().enumerate() {
                    rep.add_host(ALL_FIGURES.len() + i, o, false);
                }
                rep.driven_wall = stats.wall;
                rep.fleet = Some(stats);
            }
        }
        rep.seal();
        rep
    }
}

/// A Senpai-driven fleet-shaped host (see [`fleet_machine`]).
#[derive(Debug, Clone, Copy)]
struct FleetShape {
    dram_mib: u64,
    speedup: f64,
    duration: SimDuration,
}

impl FleetShape {
    /// Builds and steps host `ctx` running `app`, recycling scratch
    /// buffers through the worker's arena: through `TmoRuntime::tick`,
    /// timed, without `epoch`, and through the traced step loop with it.
    fn drive(
        self,
        app: &AppProfile,
        ctx: HostCtx,
        arena: &mut ShardArena,
        epoch: Option<Instant>,
    ) -> HostOut {
        let config = SenpaiConfig::accelerated(self.speedup);
        let Some(epoch) = epoch else {
            let m = fleet_machine(self.dram_mib, app, ctx.seed, arena.take_scratch());
            let mut rt = TmoRuntime::with_senpai(m, config);
            let mut samples = Vec::new();
            let violation = run_timed(&mut rt, self.duration, &mut samples).err();
            let m = rt.into_machine();
            let out = HostOut::finish(&m, None, samples, Counters::default(), violation);
            arena.put_scratch(m.into_scratch());
            return out;
        };
        let mut tr = Tracer::new(epoch, ctx.index);
        tr.enter(layer::HOST);
        tr.enter(layer::MACHINE_NEW);
        let m = fleet_machine(self.dram_mib, app, ctx.seed, arena.take_scratch());
        tr.exit();
        let mut host = Driven::senpai(m, config);
        let mut c = Counters::default();
        let violation = host.run(self.duration, &mut tr, &mut c).err();
        tr.exit();
        let m = host.into_machine();
        let out = HostOut::finish(&m, None, Vec::new(), c, violation).traced(ctx.index, &tr);
        arena.put_scratch(m.into_scratch());
        out
    }
}
