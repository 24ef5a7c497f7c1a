//! Workspace automation library.
//!
//! The `xtask` binary (see `main.rs`) fronts two commands:
//!
//! - **`analyze`** — the project rules clippy cannot express, on the
//!   token [`lexer`] so comments, strings and doc examples never produce
//!   false positives: the *crate-layering checker* (the workspace
//!   dependency DAG, declared in [`analyze::LAYERING`], with source-level
//!   import verification), the *crate-root check* (every library root
//!   carries the shared lint block), the *float-literal rule* and the
//!   *unused-api pass* (every `pub` item of a library crate is named by
//!   some code outside its definition);
//! - **`bench-diff`** — the CI bench-regression gate.
//!
//! Every per-expression rule is a clippy lint, enabled by the crate roots
//! and configured in `clippy.toml`; its waivers are
//! `#[expect(clippy::…, reason = "…")]` attributes, which clippy reports
//! as unfulfilled once they silence nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod bench_diff;
pub mod lexer;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Library crates covered by the crate-root check and the float-literal
/// rule (the bench harness is exempt: aborting on a broken experiment
/// config is the right behavior there).
pub const LIB_CRATES: &[&str] = &[
    "namespace",
    "core",
    "sim",
    "util",
    "workloads",
    "verify",
    "telemetry",
    "faults",
    "daemon",
    "snapshot",
];

/// One finding: file, 1-based line, stable check id, and the offending
/// source line (or a synthetic description for file-level checks).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable check id.
    pub check: &'static str,
    /// The offending source line, or a description for file-level checks.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.check,
            self.excerpt.trim()
        )
    }
}

/// Locates the workspace root: the manifest dir's grandparent when invoked
/// via cargo (`crates/xtask` → repo root), else the current directory.
pub fn workspace_root() -> Option<PathBuf> {
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(manifest);
        return Some(p.parent()?.parent()?.to_path_buf());
    }
    std::env::current_dir().ok()
}

/// Recursively collects `.rs` files under `dir`, sorted for stable reports.
/// Build output (`target/` directories) is skipped.
pub fn collect_rs_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
        let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = entry.path();
            if path.is_dir() {
                if entry.file_name() != "target" {
                    walk(&path, out)?;
                }
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(dir, &mut files)?;
    files.sort();
    Ok(files)
}

/// Repo-relative, forward-slash path of `file` under `root`.
pub fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}
