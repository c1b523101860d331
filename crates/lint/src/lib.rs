//! `tmo-lint` — the workspace determinism analyzer.
//!
//! The repo's load-bearing guarantee is that every simulated host is
//! bit-reproducible from `(seed, host_index, tick)` alone. The
//! seed-stability and chaos-determinism suites pin that *dynamically*;
//! this crate enforces it *statically*, as a CI gate (`scripts/ci.sh`),
//! so a `HashMap` in sim state or a stray wall-clock read becomes a
//! build error instead of a latent heisenbug a lucky test run never
//! catches.
//!
//! Run it with:
//!
//! ```text
//! cargo run -p tmo-lint                     # analyze, exit 1 on any finding
//! cargo run -p tmo-lint -- --allows        # print the allow-site inventory
//! cargo run -p tmo-lint -- --format sarif  # SARIF 2.1.0 for code scanning
//! ```
//!
//! v2 is a whole-workspace analyzer, not a per-line scanner: a
//! lightweight item parser ([`parse`]) layers functions over the
//! dependency-free lexer ([`lexer`]), a name-resolved call graph feeds
//! the interprocedural determinism-taint pass ([`taint`]), and the
//! seed-namespace registry ([`ns`]) anchors the `rng-namespace` rule.
//! The rules and their scopes live in [`rules`] and [`scope_for`]; the
//! escape hatch is a justified `// lint: allow(<rule>) <why>` comment
//! on (or immediately above) the offending line, honored at either the
//! source or the sink of a taint flow — and audited: an allow that no
//! longer suppresses anything is itself an error (`stale-allow`).
//! The analyzer stays dependency-free — the offline build environment
//! has no `syn`, so the token scanner is hand-rolled in the same
//! spirit as the `proptest`/`criterion` shims.

pub mod diag;
pub mod emit;
pub mod lexer;
pub mod ns;
pub mod parse;
pub mod rules;
pub mod taint;

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

pub use diag::{AllowSite, Finding};
pub use rules::{Rule, RuleSet};

/// Result of analyzing a workspace (or a single fixture file).
#[derive(Debug, Default)]
pub struct Analysis {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Accepted (justified, matching) allow sites, sorted.
    pub allows: Vec<AllowSite>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// One file queued for analysis. [`analyze_sources`] runs the full
/// pipeline — per-file rules, registry audit, interprocedural taint,
/// stale-allow audit — over the whole set, so fixtures exercise the
/// exact production path.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    pub source: String,
    pub rules: RuleSet,
}

/// Crates whose `src/` trees carry simulation state and are bound by
/// the hash-iteration and float-reduction rules. `experiments` is
/// deliberately absent: report formatting is not sim state (it is still
/// bound by the wall-clock rule — its *output* must be reproducible,
/// which the taint pass enforces end to end).
const SIM_CRATES: [&str; 10] = [
    "backends",
    "core",
    "faults",
    "gswap",
    "mm",
    "psi",
    "scenarios",
    "senpai",
    "sim",
    "workload",
];

/// Decides which rules bind a workspace-relative path.
///
/// * `shims/` (offline stand-ins for criterion/proptest, which
///   legitimately time things), the lint crate itself, and `tests/`
///   trees are out of scope entirely;
/// * `crates/bench` glue is bound only by the taint and atomic rules:
///   its *timing* lives in the criterion shim, but ambient values must
///   not leak into `tmo-bench-v1` sample output;
/// * every other `src/` file is bound by the wall-clock, taint, and
///   atomic rules — with `crates/core/src/runner.rs` granted the
///   documented shard-cursor exemption;
/// * sim crates add hash-iteration, float-reduction, and
///   rng-namespace; `crates/faults/src` adds the unwrap ban.
pub fn scope_for(rel: &str) -> RuleSet {
    let mut rules = RuleSet::default();
    if !rel.ends_with(".rs")
        || rel.starts_with("shims/")
        || rel.starts_with("crates/lint/")
        || rel.contains("/tests/")
        || rel.starts_with("target/")
    {
        return rules;
    }
    if rel.starts_with("crates/bench/") {
        rules.taint = true;
        rules.atomic_ordering = true;
        return rules;
    }
    rules.wall_clock = true;
    rules.taint = true;
    rules.atomic_ordering = true;
    rules.atomic_cursor_exempt = rel == "crates/core/src/runner.rs";
    if let Some(rest) = rel.strip_prefix("crates/") {
        let (krate, _) = rest.split_once('/').unwrap_or((rest, ""));
        if SIM_CRATES.contains(&krate) {
            rules.hash_iter = true;
            rules.float_reduction = true;
            rules.rng_namespace = true;
        }
        if krate == "faults" {
            rules.unwrap_in_fault_path = true;
        }
    }
    rules
}

/// Per-file intermediate state for the workspace pipeline.
struct FileState {
    rel: String,
    lexed: lexer::LexedFile,
    rules: RuleSet,
    /// Accepted allows: (annotation line, rule, target line,
    /// justification, used).
    allow_entries: Vec<(u32, Rule, u32, String, bool)>,
    /// Resolved suppression pairs `(rule, target line)`.
    suppressed: Vec<(Rule, u32)>,
    /// Findings produced so far (bad annotations, registry audit).
    direct: Vec<rules::RawFinding>,
}

/// Runs the full analysis pipeline over a set of files.
pub fn analyze_sources(specs: &[SourceSpec]) -> Analysis {
    // Pass 1: lex everything, resolve annotations, locate the
    // seed-namespace registry.
    let mut files: Vec<FileState> = Vec::new();
    let mut registry: Option<ns::NsRegistry> = None;
    for spec in specs {
        let lexed = lexer::lex(&spec.source);
        let mut rules = spec.rules;
        let mut direct = Vec::new();
        if spec.rel == ns::REGISTRY_PATH {
            // The registry file's own `*_SEED_NS` consts are the
            // registrations; it is audited structurally instead of
            // through the per-file use-site checks.
            let (reg, reg_findings) = ns::parse_registry(&lexed);
            registry = Some(reg);
            direct.extend(reg_findings);
            rules.rng_namespace = false;
        }
        let mut allow_entries = Vec::new();
        let mut suppressed = Vec::new();
        for a in &lexed.allows {
            let Some(rule) = Rule::from_id(&a.rule) else {
                direct.push(rules::RawFinding {
                    line: a.line,
                    rule: Rule::BadAnnotation,
                    message: format!("unknown rule `{}` in lint allow annotation", a.rule),
                });
                continue;
            };
            if a.justification.is_empty() {
                direct.push(rules::RawFinding {
                    line: a.line,
                    rule: Rule::BadAnnotation,
                    message: format!("allow({}) annotation without a justification", rule.id()),
                });
                continue;
            }
            let target = if lexed.has_code_on(a.line) {
                a.line
            } else {
                lexed.next_code_line(a.line).unwrap_or(a.line)
            };
            suppressed.push((rule, target));
            allow_entries.push((a.line, rule, target, a.justification.clone(), false));
        }
        files.push(FileState {
            rel: spec.rel.clone(),
            lexed,
            rules,
            allow_entries,
            suppressed,
            direct,
        });
    }

    // Pass 2: per-file token rules.
    let mut raw_per_file: Vec<Vec<rules::RawFinding>> = Vec::new();
    for f in &files {
        let mut raw = rules::check(&f.lexed, f.rules, registry.as_ref());
        raw.extend(f.direct.iter().cloned());
        raw_per_file.push(raw);
    }

    // Pass 3: the interprocedural taint pass over the whole set.
    let filtered: Vec<Vec<&lexer::Token>> = files
        .iter()
        .map(|f| f.lexed.tokens.iter().filter(|t| !t.in_test).collect())
        .collect();
    let taint_files: Vec<taint::TaintFile> = files
        .iter()
        .zip(&filtered)
        .map(|(f, tokens)| taint::TaintFile {
            rel: &f.rel,
            tokens,
            rules: f.rules,
            suppressed: &f.suppressed,
        })
        .collect();
    let taint_outcome = taint::run(&taint_files);
    for (fi, finding) in taint_outcome.findings {
        raw_per_file[fi].push(finding);
    }
    for (fi, rule, target) in &taint_outcome.used_kills {
        for entry in &mut files[*fi].allow_entries {
            if entry.1 == *rule && entry.2 == *target {
                entry.4 = true;
            }
        }
    }

    // Pass 4: suppression filter with usage tracking, then the
    // stale-allow audit.
    let mut analysis = Analysis {
        files_scanned: specs.len(),
        ..Analysis::default()
    };
    for (fi, raw) in raw_per_file.into_iter().enumerate() {
        let f = &mut files[fi];
        for finding in raw {
            let mut hit = false;
            for entry in &mut f.allow_entries {
                if entry.1 == finding.rule && entry.2 == finding.line {
                    entry.4 = true;
                    hit = true;
                }
            }
            if !hit {
                analysis.findings.push(Finding {
                    file: f.rel.clone(),
                    line: finding.line,
                    rule: finding.rule,
                    message: finding.message,
                });
            }
        }
        for (line, rule, _, justification, used) in &f.allow_entries {
            if !used {
                analysis.findings.push(Finding {
                    file: f.rel.clone(),
                    line: *line,
                    rule: Rule::StaleAllow,
                    message: format!(
                        "stale `allow({})`: the annotated line no longer triggers \
                         this rule",
                        rule.id()
                    ),
                });
            }
            analysis.allows.push(AllowSite {
                file: f.rel.clone(),
                line: *line,
                rule: rule.id().to_string(),
                justification: justification.clone(),
            });
        }
    }
    analysis
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    analysis
        .findings
        .dedup_by(|a, b| (&a.file, a.line, a.rule) == (&b.file, b.line, b.rule));
    analysis.allows.sort();
    analysis
}

/// Analyzes one source file under a given rule set — the single-file
/// view used by fixtures and rule tests. Interprocedural effects are
/// limited to the file itself (cross-file flows need
/// [`analyze_sources`]).
pub fn analyze_source(rel: &str, source: &str, rules: RuleSet) -> Analysis {
    let mut a = analyze_sources(&[SourceSpec {
        rel: rel.to_string(),
        source: source.to_string(),
        rules,
    }]);
    a.files_scanned = 1;
    a
}

/// Walks the workspace and analyzes every in-scope file.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    let mut files: BTreeSet<PathBuf> = BTreeSet::new();
    collect_rs(&root.join("crates"), &mut files)?;
    collect_rs(&root.join("src"), &mut files)?;

    let mut specs = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let rules = scope_for(&rel);
        if rules.is_empty() {
            continue;
        }
        specs.push(SourceSpec {
            rel,
            source: fs::read_to_string(&path)?,
            rules,
        });
    }
    Ok(analyze_sources(&specs))
}

fn collect_rs(dir: &Path, out: &mut BTreeSet<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.insert(path);
        }
    }
    Ok(())
}

/// Finds the workspace root from a starting directory by walking up to
/// the first directory holding both `Cargo.toml` and `crates/`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_rules_match_the_contract() {
        let senpai = scope_for("crates/senpai/src/controller.rs");
        assert!(senpai.hash_iter && senpai.wall_clock && senpai.float_reduction);
        assert!(senpai.taint && senpai.rng_namespace && senpai.atomic_ordering);
        assert!(!senpai.unwrap_in_fault_path && !senpai.atomic_cursor_exempt);
        let faults = scope_for("crates/faults/src/backend.rs");
        assert!(faults.unwrap_in_fault_path);
        assert!(scope_for("shims/criterion/src/lib.rs").is_empty());
        assert!(scope_for("crates/lint/src/lib.rs").is_empty());
        assert!(scope_for("crates/senpai/tests/properties.rs").is_empty());
        let experiments = scope_for("crates/experiments/src/headline.rs");
        assert!(experiments.wall_clock && experiments.taint && !experiments.hash_iter);
        assert!(!experiments.rng_namespace);
        let scenarios = scope_for("crates/scenarios/src/engine.rs");
        assert!(scenarios.hash_iter && scenarios.wall_clock && scenarios.float_reduction);
        assert!(!scenarios.unwrap_in_fault_path);
        assert!(scope_for("crates/scenarios/tests/properties.rs").is_empty());
        let runner = scope_for("crates/core/src/runner.rs");
        assert!(runner.atomic_ordering && runner.atomic_cursor_exempt);
        let bench = scope_for("crates/bench/src/report.rs");
        assert!(bench.taint && bench.atomic_ordering && !bench.wall_clock);
    }

    #[test]
    fn trailing_annotation_suppresses_its_line() {
        let src = "let t = Instant::now(); // lint: allow(wall-clock) stderr-only timing\n";
        let a = analyze_source("x.rs", src, RuleSet::all());
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.allows.len(), 1);
    }

    #[test]
    fn standalone_annotation_suppresses_next_line() {
        let src = "// lint: allow(wall-clock) stderr-only timing\nlet t = Instant::now();\n";
        let a = analyze_source("x.rs", src, RuleSet::all());
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn unjustified_annotation_is_a_finding() {
        let src = "let t = Instant::now(); // lint: allow(wall-clock)\n";
        let a = analyze_source("x.rs", src, RuleSet::all());
        assert!(a.findings.iter().any(|f| f.rule == Rule::BadAnnotation));
    }

    #[test]
    fn unknown_rule_annotation_is_a_finding() {
        let src = "let x = 1; // lint: allow(no-such-rule) because reasons\n";
        let a = analyze_source("x.rs", src, RuleSet::all());
        assert!(a.findings.iter().any(|f| f.rule == Rule::BadAnnotation));
    }

    #[test]
    fn annotation_for_the_wrong_rule_does_not_suppress() {
        let src = "let t = Instant::now(); // lint: allow(hash-iter) wrong rule\n";
        let a = analyze_source("x.rs", src, RuleSet::all());
        assert!(a.findings.iter().any(|f| f.rule == Rule::WallClock));
        // ... and the mismatched allow is also stale.
        assert!(a.findings.iter().any(|f| f.rule == Rule::StaleAllow));
    }

    #[test]
    fn unused_allow_is_stale() {
        let src = "let x = 1; // lint: allow(wall-clock) nothing here needs this\n";
        let a = analyze_source("x.rs", src, RuleSet::all());
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == Rule::StaleAllow && f.line == 1),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn allow_that_kills_a_taint_source_is_not_stale() {
        // `available_parallelism` trips no per-file rule; the allow's
        // only job is killing the taint source. It must count as used.
        let src = "fn width() -> usize {\n    \
                   std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) \
                   // lint: allow(determinism-taint) pool sizing only\n}\n";
        let mut rules = RuleSet::all();
        rules.unwrap_in_fault_path = false;
        let a = analyze_source("x.rs", src, rules);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.allows.len(), 1);
    }

    #[test]
    fn cross_file_taint_flows_through_analyze_sources() {
        let specs = [
            SourceSpec {
                rel: "crates/a/src/lib.rs".into(),
                source: "pub fn stamp() -> u64 { let t = Instant::now(); 0 }\n".into(),
                rules: RuleSet::all(),
            },
            SourceSpec {
                rel: "crates/b/src/lib.rs".into(),
                source: "pub fn render(s: &FleetSummary) { let x = stamp(); }\n".into(),
                rules: RuleSet::all(),
            },
        ];
        let a = analyze_sources(&specs);
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == Rule::DeterminismTaint && f.file == "crates/b/src/lib.rs"),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn registry_file_consts_are_not_stray_declarations() {
        let spec = SourceSpec {
            rel: ns::REGISTRY_PATH.into(),
            source: "pub const A_SEED_NS: u64 = 0x1;\n\
                     pub const ALL: &[(&str, u64)] = &[(\"A_SEED_NS\", A_SEED_NS)];\n"
                .into(),
            rules: scope_for(ns::REGISTRY_PATH),
        };
        let a = analyze_sources(&[spec]);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn registered_namespace_use_is_clean_with_registry_present() {
        let specs = [
            SourceSpec {
                rel: ns::REGISTRY_PATH.into(),
                source: "pub const A_SEED_NS: u64 = 0x1;\n\
                         pub const ALL: &[(&str, u64)] = &[(\"A_SEED_NS\", A_SEED_NS)];\n"
                    .into(),
                rules: scope_for(ns::REGISTRY_PATH),
            },
            SourceSpec {
                rel: "crates/faults/src/plan.rs".into(),
                source:
                    "pub fn derive(seed: u64) -> u64 { derive_host_seed(seed ^ A_SEED_NS, 0) }\n"
                        .into(),
                rules: scope_for("crates/faults/src/plan.rs"),
            },
        ];
        let a = analyze_sources(&specs);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn unregistered_namespace_use_is_flagged_with_registry_present() {
        let specs = [
            SourceSpec {
                rel: ns::REGISTRY_PATH.into(),
                source: "pub const A_SEED_NS: u64 = 0x1;\n\
                         pub const ALL: &[(&str, u64)] = &[(\"A_SEED_NS\", A_SEED_NS)];\n"
                    .into(),
                rules: scope_for(ns::REGISTRY_PATH),
            },
            SourceSpec {
                rel: "crates/faults/src/plan.rs".into(),
                source:
                    "pub fn derive(seed: u64) -> u64 { derive_host_seed(seed ^ B_SEED_NS, 0) }\n"
                        .into(),
                rules: scope_for("crates/faults/src/plan.rs"),
            },
        ];
        let a = analyze_sources(&specs);
        assert!(
            a.findings.iter().any(|f| f.rule == Rule::RngNamespace),
            "{:?}",
            a.findings
        );
    }
}
