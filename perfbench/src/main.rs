//! The benchmark's one command.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_zswap --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits 1
//! if any output check fails and 2 on a usage or set-up error.

// A timing harness reads the host clock by design (see the library root).
#![allow(clippy::disallowed_methods)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tmo::runner::FleetRunner;
use tmo_perfbench::report::{self, Metric, RunFacts, TAIL_Q};
use tmo_perfbench::stats::{median, peak_rss_mib};
use tmo_perfbench::trace::write_spans;
use tmo_perfbench::workload::{Plan, Rep, Workload, FLEET_PREFIX};

/// Set-ups before each untraced repetition; `setup_s` is the median
/// over the run.
const SETUPS_PER_REP: usize = 10;
/// Fewest repetitions of each kind a run makes, however short `--seconds`.
const MIN_REPS: usize = 3;

const USAGE: &str = "usage: tmo-perfbench --workload <fleet_zswap|scenario_chaos|figure_suite> \
                     --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("a whole number of seconds in 1..=600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../docs/repro_output.txt");
    // The run sets up several times before every untraced repetition,
    // so that the median set-up time samples the same stretch of time
    // as the repetitions. The first set-up also pays process start.
    let mut setup = Vec::new();
    let mut set_up = |start: Instant| -> Option<Plan> {
        match Plan::new(args.workload, args.seed, &golden) {
            Ok(p) => {
                setup.push(start.elapsed().as_secs_f64());
                Some(p)
            }
            Err(e) => {
                eprintln!("error: set-up failed: {e}");
                None
            }
        }
    };
    let Some(mut plan) = set_up(process_start) else {
        return ExitCode::from(2);
    };

    // Sizes the worker pool only: every output is jobs-invariant, and
    // the fleet_zswap prefix check below holds the runner to that.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let runner = FleetRunner::new(nproc);
    let budget = Duration::from_secs(args.seconds);
    let epoch = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Untraced and traced repetitions alternate so that a co-tenant's
    // load falls on both alike.
    while plain.len() < MIN_REPS || epoch.elapsed() < budget {
        let more = SETUPS_PER_REP - usize::from(plain.is_empty());
        for _ in 0..more {
            let Some(p) = set_up(Instant::now()) else {
                return ExitCode::from(2);
            };
            plan = p;
        }
        plain.push(plan.rep(&runner, None));
        if args.trace {
            traced.push(plan.rep(&runner, Some(epoch)));
        }
    }

    let mut failures: Vec<String> = plain
        .iter()
        .chain(&traced)
        .flat_map(|r| r.failures.iter().cloned())
        .collect();
    let digest = plain[0].digest;
    for (i, r) in plain.iter().enumerate().skip(1) {
        if r.digest != digest {
            failures.push(format!(
                "repetition {i}: output digest {:016x} != {digest:016x}",
                r.digest
            ));
        }
    }
    for (i, r) in traced.iter().enumerate() {
        if r.digest != digest {
            failures.push(format!(
                "traced repetition {i}: output digest {:016x} != untraced {digest:016x}",
                r.digest
            ));
        }
    }
    if args.workload == Workload::FleetZswap {
        let one = plan.rep_hosts(&FleetRunner::sequential(), None, FLEET_PREFIX);
        failures.extend(one.failures.iter().cloned());
        if one.unit_digests[..] != plain[0].unit_digests[..FLEET_PREFIX] {
            failures.push(format!(
                "the first {FLEET_PREFIX} hosts differ between jobs=1 and jobs={}",
                runner.jobs()
            ));
        }
    }

    let facts = RunFacts {
        setup_s: median(&setup),
        peak_rss_mib: peak_rss_mib().unwrap_or(0.0),
    };
    let metrics: Vec<Metric> = if args.trace {
        report::per_layer(&plain, &traced)
    } else {
        match report::end_to_end(&plain, facts) {
            Ok(m) => m,
            Err(e) => {
                failures.push(format!("tick_us_p99: {e}"));
                Vec::new()
            }
        }
    };

    print_report(&args, nproc, &runner, &setup, &plain, &traced, &metrics);
    if args.trace {
        let path = spans_path(&args);
        let spans = &traced[0].spans;
        match write_spans(&path, spans) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => failures.push(format!("writing {}: {e}", path.display())),
        }
    }
    for f in &failures {
        println!("FAILED: {f}");
    }
    let attempted: usize = plain.iter().chain(&traced).map(|r| r.attempted).sum();
    let failed = failures.len() as u64;
    println!(
        "{}",
        report::json_line(failed == 0, attempted as u64, failed, &metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn spans_path(args: &Args) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ))
}

fn print_report(
    args: &Args,
    nproc: usize,
    runner: &FleetRunner,
    setup: &[f64],
    plain: &[Rep],
    traced: &[Rep],
    metrics: &[Metric],
) {
    let effective = plain
        .iter()
        .map(report::effective_workers)
        .max()
        .unwrap_or(0);
    println!("workload: {}", args.workload.name());
    match args.workload {
        Workload::FigureSuite => println!(
            "seed: figures run at their pinned EXPERIMENT_SEEDs; --seed {} is not used",
            args.seed
        ),
        _ => println!(
            "seed: {} (host i runs FleetRunner::host_seed({}, i))",
            args.seed, args.seed
        ),
    }
    let samples: usize = plain.iter().map(|r| r.steps.count).sum();
    let per_rep = plain[0].steps.count;
    let beyond = per_rep - (TAIL_Q * per_rep as f64).ceil() as usize;
    println!(
        "env: nproc={nproc} jobs={} effective_workers={} units_per_rep={} reps={} traced_reps={}",
        runner.jobs(),
        effective,
        plain[0].attempted,
        plain.len(),
        traced.len()
    );
    println!(
        "steps: {samples} step samples ({per_rep} per rep); tick_us_p99 is the nearest-rank \
         p{:.0} of each rep ({beyond} samples beyond it), median over reps",
        TAIL_Q * 100.0
    );
    let walls: Vec<String> = plain
        .iter()
        .map(|r| format!("{:.3}", r.wall.as_secs_f64()))
        .collect();
    println!("repetition walls (s): {}", walls.join(" "));
    println!(
        "set-up: {} set-ups; the first, from process start, took {:.6} s; setup_s is their median",
        setup.len(),
        setup[0]
    );
    for m in metrics {
        let note = match m.name {
            "saved_frac" => "  (simulated; paper band 0.20-0.32, not gated)",
            "psi_mem_some_pct" | "host_ok_frac" => "  (simulated)",
            "core.runner.speedup" if effective == 1 => "  (not measured: one effective worker)",
            _ => "",
        };
        println!("  {:<34} {:>16.6} {}{note}", m.name, m.value, m.unit);
    }
    if !traced.is_empty() {
        let get = |n: &str| {
            metrics
                .iter()
                .find(|m| m.name == n)
                .map_or(0.0, |m| m.value)
        };
        let step_ms = get("trace.step_self_ms");
        let gap_ms = get("bench.step.busy_ms");
        let overhead_ms = get("trace.overhead_busy_ms");
        println!(
            "trace: inside steps, layer self times sum to {:.3} of {step_ms:.3} ms/rep; the \
             unattributed {gap_ms:.3} ms {} the {overhead_ms:.3} ms of busy time tracing added",
            step_ms - gap_ms,
            if gap_ms <= overhead_ms {
                "is within"
            } else {
                "EXCEEDS"
            },
        );
        println!(
            "trace: untraced steps took {:.3} ms/rep; tracing added {:.3} ms/rep of wall time",
            get("trace.step_untraced_ms"),
            get("trace.overhead_ms")
        );
    }
}
