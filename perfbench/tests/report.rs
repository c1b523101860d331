//! The report's names, units and helpers.

use std::time::Duration;

use tmo_perfbench::report::{
    end_to_end, json_line, per_layer, RunFacts, Steps, END_TO_END, PER_LAYER,
};
use tmo_perfbench::stats::{percentile, MIN_BEYOND};
use tmo_perfbench::trace::LAYER_NAMES;
use tmo_perfbench::workload::{figure_sections, Rep};

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn rep(wall_ms: u64) -> Rep {
    Rep {
        wall: Duration::from_millis(wall_ms),
        driven_wall: Duration::from_millis(wall_ms),
        attempted: 4,
        completed: 4,
        steps: Steps::of(&mut (1..=2000).collect::<Vec<u32>>()),
        sim_s: 600.0,
        saved_sum: 0.8,
        sim_hosts: 4,
        mem_some_s: 1.0,
        container_s: 1200.0,
        ..Rep::default()
    }
}

#[test]
fn every_emitted_name_is_well_formed_and_unique() {
    let facts = RunFacts {
        setup_s: 0.01,
        peak_rss_mib: 40.0,
    };
    let reps = [rep(10), rep(12), rep(11)];
    let e2e = end_to_end(&reps, facts).expect("2000 samples support p99");
    let layers = per_layer(&reps, &reps);
    let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name).collect();
    names.extend(LAYER_NAMES);
    for n in &names {
        assert!(name_ok(n), "bad metric name {n:?}");
    }
    let emitted: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name).collect();
    let mut sorted = emitted.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), emitted.len(), "a metric name is used twice");
    let listed: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    assert_eq!(emitted, listed);
    for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
    }
    let line = json_line(true, 12, 0, &e2e);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {")
    );
    assert!(
        line.contains("\"wall_s\": {\"value\": 0.011, \"unit\": \"s\"}"),
        "{line}"
    );
}

#[test]
fn benchmark_json_lists_every_metric_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let entries = compact.matches("{\"name\":").count();
    // Three workloads plus every metric, and nothing else.
    assert_eq!(entries, 3 + END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn tail_percentile_refuses_thin_tails() {
    let s: Vec<u32> = (0..1000).collect();
    // 1000 samples: the p99 rank is 990, leaving exactly ten beyond it.
    assert_eq!(percentile(&s, 0.99), Ok(989));
    let thin = percentile(&s[..999], 0.99).expect_err("nine beyond is too few");
    assert_eq!((thin.samples, thin.beyond), (999, 9));
    assert!(thin.beyond < MIN_BEYOND);
    assert!(percentile(&[], 0.5).is_err());
    assert_eq!(percentile(&s, 0.5), Ok(499));
}

#[test]
fn pinned_output_splits_into_the_fourteen_figures() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../docs/repro_output.txt");
    let text = std::fs::read_to_string(path).expect("pinned figure output");
    let sections = figure_sections(&text).expect("every figure has a section");
    assert_eq!(sections.len(), 14);
    for (i, s) in sections.iter().enumerate() {
        assert!(s.starts_with(&format!("== figure-{:02} ", i + 1)));
        assert!(
            s.ends_with("\n\n"),
            "figure {} section ends with a blank line",
            i + 1
        );
    }
    let fig1 = tmo_experiments::run_figure(1, tmo_experiments::Scale::Paper).expect("figure 1");
    assert_eq!(format!("{}\n", fig1.render()), sections[0]);
}
