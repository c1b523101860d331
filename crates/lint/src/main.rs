//! CLI for the determinism analyzer.
//!
//! ```text
//! tmo-lint [--root <dir>] [--allows] [--format human|sarif]
//! ```
//!
//! Default mode prints rustc-style diagnostics for every unsuppressed
//! finding and exits 1 if there are any; `--allows` prints the sorted
//! inventory of accepted `// lint: allow(...)` sites (compared against
//! `scripts/golden/lint_clean.txt` in CI so new escape hatches surface
//! in review); `--format sarif` emits the machine-readable SARIF report
//! (same exit-code contract as human mode).

use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Human,
    Sarif,
}

fn main() -> ExitCode {
    let mut allows_mode = false;
    let mut format = Format::Human;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--allows" => allows_mode = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("sarif") => format = Format::Sarif,
                other => {
                    eprintln!("error: --format requires one of human|sarif (got {other:?})");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: tmo-lint [--root <dir>] [--allows] [--format human|sarif]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| tmo_lint::find_workspace_root(&d))
    });
    let Some(root) = root else {
        eprintln!("error: could not locate the workspace root (Cargo.toml + crates/)");
        return ExitCode::from(2);
    };

    let analysis = match tmo_lint::analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: workspace scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if allows_mode {
        for site in &analysis.allows {
            println!("{site}");
        }
        return ExitCode::SUCCESS;
    }

    match format {
        Format::Human => {
            for finding in &analysis.findings {
                println!("{finding}\n");
            }
            eprintln!(
                "tmo-lint: {} finding(s) across {} file(s) scanned ({} allowed site(s))",
                analysis.findings.len(),
                analysis.files_scanned,
                analysis.allows.len()
            );
        }
        Format::Sarif => print!("{}", tmo_lint::emit::to_sarif(&analysis)),
    }
    if analysis.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
