//! Workspace automation tasks, following the cargo-xtask convention.
//!
//! All logic lives in the `xtask` library (see `lib.rs`); this binary is
//! the thin CLI front:
//!
//! ```text
//! cargo run -p xtask -- analyze
//! cargo run -p xtask -- bench-diff bench-baseline.json BENCH.json [--threshold 0.15]
//! ```
//!
//! Exit codes: 0 clean, 1 findings/regressions, 2 usage/IO error.

use std::process::ExitCode;

use xtask::bench_diff::bench_diff_command;
use xtask::{analyze::analyze_workspace, workspace_root};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze_command(),
        Some("bench-diff") => bench_diff_command(&args[1..]),
        Some(other) => {
            eprintln!("unknown task `{other}`; available tasks: analyze, bench-diff");
            ExitCode::from(2)
        }
        None => {
            eprintln!(
                "usage: cargo run -p xtask -- analyze\n       cargo run -p xtask -- bench-diff <baseline.json> <current.json> [--threshold 0.15]"
            );
            ExitCode::from(2)
        }
    }
}

/// Locates the workspace, runs the analysis passes and reports.
fn analyze_command() -> ExitCode {
    let Some(root) = workspace_root() else {
        eprintln!("xtask: could not locate the workspace root");
        return ExitCode::from(2);
    };
    match analyze_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("xtask analyze: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("xtask analyze: {} finding(s)", findings.len());
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("xtask: analyze failed: {e}");
            ExitCode::from(2)
        }
    }
}
