//! Turning repetitions into named metrics, and printing them.

use std::fmt::Write as _;

use crate::stats::{median, percentile, ThinTail};
use crate::trace::{layer, STEP_LAYERS};
use crate::workload::Rep;

/// The tail percentile reported as `tick_us_p99`.
pub const TAIL_Q: f64 = 0.99;

/// End-to-end metric names with their units, in report order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("sim_s_per_s", "s/s"),
    ("tick_us_p50", "us"),
    ("tick_us_p99", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("host_ok_frac", "ratio"),
    ("saved_frac", "ratio"),
    ("psi_mem_some_pct", "%"),
];

/// Per-layer metric names with their units, in report order.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("core.machine_new.calls", "count"),
    ("core.machine_new.busy_ms", "ms"),
    ("core.machine_tick.calls", "count"),
    ("core.machine_tick.busy_ms", "ms"),
    ("core.machine_tick.ns_per_access", "ns"),
    ("core.signal.busy_ms", "ms"),
    ("core.reclaim.calls", "count"),
    ("core.reclaim.busy_ms", "ms"),
    ("core.reclaim.requested_mib", "MiB"),
    ("core.reclaim.reclaimed_mib", "MiB"),
    ("core.reclaim.yield", "ratio"),
    ("core.kill.busy_ms", "ms"),
    ("mm.reclaim.scanned_pages", "pages"),
    ("mm.reclaim.efficiency", "ratio"),
    ("senpai.decide.calls", "count"),
    ("senpai.decide.busy_ms", "ms"),
    ("senpai.decide.act_frac", "ratio"),
    ("senpai.oomd.busy_ms", "ms"),
    ("senpai.oomd.kills", "count"),
    ("core.runner.effective_jobs", "count"),
    ("core.runner.shards", "count"),
    ("core.runner.busy_ms", "ms"),
    ("core.runner.speedup", "ratio"),
    ("core.runner.idle_frac", "ratio"),
    ("mm.swapins", "count"),
    ("mm.swapouts", "count"),
    ("mm.refaults", "count"),
    ("mm.direct_reclaims", "count"),
    ("mm.alloc_failures", "count"),
    ("mm.lost_loads", "count"),
    ("backends.reads", "count"),
    ("backends.writes", "count"),
    ("backends.written_mib", "MiB"),
    ("backends.io_errors", "count"),
    ("backends.retries", "count"),
    ("backends.failovers", "count"),
    ("backends.faults_injected", "count"),
    ("psi.mem_some_s", "s"),
    ("psi.mem_full_s", "s"),
    ("psi.io_some_s", "s"),
    ("scenarios.modulate_busy_ms", "ms"),
    ("scenarios.score_busy_ms", "ms"),
    ("scenarios.causal_charges", "count"),
    ("experiments.fig01_ms", "ms"),
    ("experiments.fig02_ms", "ms"),
    ("experiments.fig03_ms", "ms"),
    ("experiments.fig04_ms", "ms"),
    ("experiments.fig05_ms", "ms"),
    ("experiments.fig06_ms", "ms"),
    ("experiments.fig07_ms", "ms"),
    ("experiments.fig08_ms", "ms"),
    ("experiments.fig09_ms", "ms"),
    ("experiments.fig10_ms", "ms"),
    ("experiments.fig11_ms", "ms"),
    ("experiments.fig12_ms", "ms"),
    ("experiments.fig13_ms", "ms"),
    ("experiments.fig14_ms", "ms"),
    ("bench.step.busy_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_busy_ms", "ms"),
    ("trace.step_self_ms", "ms"),
    ("trace.step_untraced_ms", "ms"),
    ("trace.spans", "count"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metrics(table: &[(&'static str, &'static str)], value: impl Fn(&str) -> f64) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: value(name),
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One repetition's step times, summarised so the samples can go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Steps {
    /// Steps timed.
    pub count: usize,
    /// Their summed host time, ns.
    pub total_ns: u64,
    /// Median step time, ns.
    pub p50_ns: Result<u32, ThinTail>,
    /// [`TAIL_Q`] step time, ns.
    pub tail_ns: Result<u32, ThinTail>,
}

impl Default for Steps {
    fn default() -> Self {
        Steps::of(&mut [])
    }
}

impl Steps {
    /// Summarises step times in ns; sorts them in place.
    pub fn of(samples: &mut [u32]) -> Steps {
        samples.sort_unstable();
        Steps {
            count: samples.len(),
            total_ns: samples.iter().map(|&ns| u64::from(ns)).sum(),
            p50_ns: percentile(samples, 0.5),
            tail_ns: percentile(samples, TAIL_Q),
        }
    }
}

/// Workers that simulated at least one host.
pub fn effective_workers(rep: &Rep) -> usize {
    rep.fleet
        .as_ref()
        .map_or(0, |s| s.shard_hosts.iter().filter(|&&h| h > 0).count())
}

/// Inputs of the end-to-end metrics besides the repetitions.
#[derive(Debug, Clone, Copy)]
pub struct RunFacts {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Peak resident memory, MiB.
    pub peak_rss_mib: f64,
}

/// The end-to-end metrics of untraced repetitions: host-time metrics
/// are medians over repetitions.
pub fn end_to_end(reps: &[Rep], facts: RunFacts) -> Result<Vec<Metric>, ThinTail> {
    let walls: Vec<f64> = reps.iter().map(|r| r.wall.as_secs_f64()).collect();
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| ratio(r.sim_s, r.driven_wall.as_secs_f64()))
        .collect();
    let mut p50 = Vec::new();
    let mut tail = Vec::new();
    for r in reps {
        p50.push(f64::from(r.steps.p50_ns?) / 1e3);
        tail.push(f64::from(r.steps.tail_ns?) / 1e3);
    }
    let attempted: usize = reps.iter().map(|r| r.attempted).sum();
    let completed: usize = reps.iter().map(|r| r.completed).sum();
    let first = &reps[0];
    Ok(metrics(&END_TO_END, |name| match name {
        "wall_s" => median(&walls),
        "sim_s_per_s" => median(&rates),
        "tick_us_p50" => median(&p50),
        "tick_us_p99" => median(&tail),
        "setup_s" => facts.setup_s,
        "peak_rss_mib" => facts.peak_rss_mib,
        "host_ok_frac" => ratio(completed as f64, attempted as f64),
        "saved_frac" => ratio(first.saved_sum, first.sim_hosts as f64),
        "psi_mem_some_pct" => 100.0 * ratio(first.mem_some_s, first.container_s),
        _ => unreachable!("unhandled end-to-end metric {name}"),
    }))
}

/// The per-layer metrics of a traced run: times are per repetition
/// (median over traced repetitions), counts are per repetition (they
/// repeat exactly), runner figures come from the untraced repetitions.
pub fn per_layer(plain: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let med = |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| -> f64 {
        median(&reps.iter().map(f).collect::<Vec<_>>())
    };
    let self_ms = |l: usize| med(traced, &|r: &Rep| r.layers.self_ms(l));
    let step_self = |r: &Rep| {
        STEP_LAYERS
            .iter()
            .map(|&l| r.layers.self_ms(l))
            .sum::<f64>()
    };
    let c = &traced[0].counters;
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let runner = |f: &dyn Fn(&tmo::FleetStats) -> f64| -> f64 {
        if plain[0].fleet.is_none() {
            return 0.0;
        }
        med(plain, &|r: &Rep| r.fleet.as_ref().map_or(0.0, f))
    };
    let effective = plain.iter().map(effective_workers).max().unwrap_or(0);
    metrics(&PER_LAYER, |name| {
        if let Some(fig) = name
            .strip_prefix("experiments.fig")
            .and_then(|s| s.strip_suffix("_ms"))
        {
            let n: usize = fig.parse().expect("figure metric names carry a number");
            return self_ms(layer::FIGURE + n - 1);
        }
        match name {
            "core.machine_new.calls" => traced[0].layers.calls[layer::MACHINE_NEW] as f64,
            "core.machine_new.busy_ms" => self_ms(layer::MACHINE_NEW),
            "core.machine_tick.calls" => traced[0].layers.calls[layer::MACHINE_TICK] as f64,
            "core.machine_tick.busy_ms" => self_ms(layer::MACHINE_TICK),
            "core.machine_tick.ns_per_access" => {
                ratio(self_ms(layer::MACHINE_TICK) * 1e6, c.accesses as f64)
            }
            "core.signal.busy_ms" => self_ms(layer::SIGNAL),
            "core.reclaim.calls" => traced[0].layers.calls[layer::RECLAIM] as f64,
            "core.reclaim.busy_ms" => self_ms(layer::RECLAIM),
            "core.reclaim.requested_mib" => mib(c.requested_bytes),
            "core.reclaim.reclaimed_mib" => mib(c.reclaimed_bytes),
            "core.reclaim.yield" => ratio(c.reclaimed_bytes as f64, c.requested_bytes as f64),
            "core.kill.busy_ms" => self_ms(layer::KILL),
            "mm.reclaim.scanned_pages" => c.scanned_pages as f64,
            "mm.reclaim.efficiency" => ratio(c.reclaimed_pages as f64, c.scanned_pages as f64),
            "senpai.decide.calls" => c.decisions as f64,
            "senpai.decide.busy_ms" => self_ms(layer::DECIDE),
            "senpai.decide.act_frac" => ratio(c.acted as f64, c.decisions as f64),
            "senpai.oomd.busy_ms" => self_ms(layer::OOMD),
            "senpai.oomd.kills" => c.oomd_kills as f64,
            "core.runner.effective_jobs" => effective as f64,
            "core.runner.shards" => runner(&|s| s.shards as f64),
            "core.runner.busy_ms" => runner(&|s| s.total_busy().as_secs_f64() * 1e3),
            // Not measured with one effective worker: busy over wall
            // is then one worker's time over itself.
            "core.runner.speedup" if effective < 2 => 0.0,
            "core.runner.speedup" => runner(&|s| s.speedup()),
            "core.runner.idle_frac" => runner(&|s| {
                1.0 - ratio(
                    s.total_busy().as_secs_f64(),
                    s.jobs as f64 * s.wall.as_secs_f64(),
                )
            }),
            "mm.swapins" => c.swapins as f64,
            "mm.swapouts" => c.swapouts as f64,
            "mm.refaults" => c.refaults as f64,
            "mm.direct_reclaims" => c.direct_reclaims as f64,
            "mm.alloc_failures" => c.alloc_failures as f64,
            "mm.lost_loads" => c.lost_loads as f64,
            "backends.reads" => c.reads as f64,
            "backends.writes" => c.writes as f64,
            "backends.written_mib" => mib(c.written_bytes),
            "backends.io_errors" => c.io_errors as f64,
            "backends.retries" => c.retries as f64,
            "backends.failovers" => c.failovers as f64,
            "backends.faults_injected" => c.faults_injected as f64,
            "psi.mem_some_s" => c.mem_some_s,
            "psi.mem_full_s" => c.mem_full_s,
            "psi.io_some_s" => c.io_some_s,
            "scenarios.modulate_busy_ms" => self_ms(layer::MODULATE),
            "scenarios.score_busy_ms" => self_ms(layer::SCORE),
            "scenarios.causal_charges" => c.causal_charges as f64,
            "bench.step.busy_ms" => self_ms(layer::STEP),
            "trace.overhead_ms" => {
                let traced_wall = med(traced, &|r: &Rep| r.wall.as_secs_f64());
                let plain_wall = med(plain, &|r: &Rep| r.wall.as_secs_f64());
                (traced_wall - plain_wall) * 1e3
            }
            "trace.overhead_busy_ms" => {
                (med(traced, &Rep::driven_busy_s) - med(plain, &Rep::driven_busy_s)) * 1e3
            }
            "trace.step_self_ms" => med(traced, &step_self),
            // The untraced mean tick time over the traced step count. On
            // `scenario_chaos` only two hosts per scenario are timed tick
            // by tick, so there it is an estimate.
            "trace.step_untraced_ms" => {
                let steps = traced[0].layers.calls[layer::STEP] as f64;
                med(plain, &|r: &Rep| {
                    ratio(r.steps.total_ns as f64, r.steps.count as f64) * steps / 1e6
                })
            }
            "trace.spans" => traced[0].layers.calls.iter().sum::<u64>() as f64,
            _ => unreachable!("unhandled per-layer metric {name}"),
        }
    })
}

/// The last line of the report: one JSON object.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; every ratio above guards its
        // denominator, so a non-finite value is a bug.
        assert!(m.value.is_finite(), "{} is not finite", m.name);
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
