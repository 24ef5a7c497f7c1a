//! The deeper analysis passes: determinism auditor, crate-layering
//! checker, and cast-safety lint.
//!
//! ## Determinism auditor (`det-*`)
//!
//! Every figure this reproduction ships depends on byte-identical
//! same-seed runs. The auditor bans, in library-crate code (tests exempt):
//!
//! - `HashMap` / `HashSet` (`det-collection`) — their iteration order is
//!   randomized per process (`RandomState`), so any iteration that reaches
//!   output, telemetry, or balancer decisions breaks reproducibility; use
//!   `BTreeMap` / `BTreeSet` or index-keyed `Vec`s instead;
//! - `SystemTime` / `Instant` (`det-clock`) — wall-clock reads in logic
//!   paths leak real time into results; the telemetry clock is derived
//!   from `(tick, seq)` instead;
//! - `std::env` (`det-env`) — environment reads make runs depend on
//!   ambient state; configuration flows through explicit config structs;
//! - `RandomState` (`det-random`) — OS-seeded hashing.
//!
//! Sanctioned exceptions (e.g. the worker pool's `LUNULE_JOBS` default,
//! which by construction cannot change results) are waived in
//! `lint-allow.txt` and stale-checked like every other waiver.
//!
//! ## Crate-layering checker (`layering`)
//!
//! [`LAYERING`] declares the workspace dependency DAG. The checker fails
//! on back-edges: a `[dependencies]` entry (or a `lunule_*` source
//! reference) not in the declared allowed set, a crate missing from the
//! table, or a cycle in the table itself.
//!
//! ## Cast-safety lint (`cast-lossy`)
//!
//! Numeric `as` casts silently truncate, wrap, or round. In hot-path
//! crates every `expr as <numeric>` must either carry a token-level
//! widening proof (literal value/suffix that provably fits, or a cast
//! chain whose previous target widens into the new one) or an inline
//! waiver comment `// as-ok: <reason>` on the same or preceding line.
//! Waiver comments that no longer cover a cast are themselves findings
//! (`stale-cast-waiver`).

use crate::lexer::{lex, literal_suffix, TokKind};
use crate::lint::cfg_test_mask;
use crate::{
    collect_rs_files, filter_with_stale_check, rel_path, AllowEntry, Finding, HOT_PATH_CRATES,
    LIB_CRATES,
};
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Check ids owned by the analyze command (used for stale-waiver
/// detection against `lint-allow.txt`).
pub const ANALYZE_CHECKS: &[&str] = &[
    "det-collection",
    "det-clock",
    "det-env",
    "det-random",
    "cast-lossy",
    "layering",
];

/// One crate's position in the layering DAG: its name, source directory,
/// and the complete set of workspace crates it may depend on.
#[derive(Debug)]
pub struct CrateLayer {
    /// Crate name as it appears in `Cargo.toml` (`lunule-core`, `xtask`).
    pub name: &'static str,
    /// Directory of the crate relative to the workspace root.
    pub dir: &'static str,
    /// Workspace crates this crate may list under `[dependencies]`.
    pub deps: &'static [&'static str],
}

/// The workspace layering DAG, lowest layer first. A crate may depend only
/// on the crates listed — the checker fails on back-edges and on crates
/// absent from this table, so adding a dependency is a conscious,
/// reviewed layering decision.
///
/// ```text
/// util ─┬─ namespace ─┬─ faults ─────┐
///       ├─ telemetry ─┴─ core ─────── sim ─┬─ verify ────┬─ bench
///       └─ snapshot ──────────────────┘    └─ workloads ─┴─ daemon
///                                       (facade atop all)
/// ```
pub const LAYERING: &[CrateLayer] = &[
    CrateLayer {
        name: "lunule-util",
        dir: "crates/util",
        deps: &[],
    },
    CrateLayer {
        name: "lunule-namespace",
        dir: "crates/namespace",
        deps: &["lunule-util"],
    },
    CrateLayer {
        name: "lunule-telemetry",
        dir: "crates/telemetry",
        deps: &["lunule-util"],
    },
    CrateLayer {
        name: "lunule-snapshot",
        dir: "crates/snapshot",
        deps: &["lunule-util"],
    },
    CrateLayer {
        name: "lunule-faults",
        dir: "crates/faults",
        deps: &["lunule-namespace", "lunule-util"],
    },
    CrateLayer {
        name: "lunule-core",
        dir: "crates/core",
        deps: &["lunule-namespace", "lunule-telemetry", "lunule-util"],
    },
    CrateLayer {
        name: "lunule-sim",
        dir: "crates/sim",
        deps: &[
            "lunule-core",
            "lunule-faults",
            "lunule-namespace",
            "lunule-snapshot",
            "lunule-telemetry",
            "lunule-util",
        ],
    },
    CrateLayer {
        name: "lunule-verify",
        dir: "crates/verify",
        deps: &[
            "lunule-core",
            "lunule-namespace",
            "lunule-sim",
            "lunule-util",
        ],
    },
    CrateLayer {
        name: "lunule-workloads",
        dir: "crates/workloads",
        deps: &["lunule-namespace", "lunule-sim", "lunule-util"],
    },
    CrateLayer {
        name: "lunule-daemon",
        dir: "crates/daemon",
        deps: &[
            "lunule-core",
            "lunule-faults",
            "lunule-namespace",
            "lunule-sim",
            "lunule-snapshot",
            "lunule-telemetry",
            "lunule-util",
            "lunule-workloads",
        ],
    },
    CrateLayer {
        name: "lunule-bench",
        dir: "crates/bench",
        deps: &[
            "lunule-core",
            "lunule-daemon",
            "lunule-faults",
            "lunule-namespace",
            "lunule-sim",
            "lunule-snapshot",
            "lunule-telemetry",
            "lunule-util",
            "lunule-verify",
            "lunule-workloads",
        ],
    },
    CrateLayer {
        name: "xtask",
        dir: "crates/xtask",
        deps: &["lunule-util"],
    },
    CrateLayer {
        name: "lunule",
        dir: ".",
        deps: &[
            "lunule-core",
            "lunule-daemon",
            "lunule-faults",
            "lunule-namespace",
            "lunule-sim",
            "lunule-snapshot",
            "lunule-telemetry",
            "lunule-util",
            "lunule-verify",
            "lunule-workloads",
        ],
    },
];

/// Runs all three analysis passes over the workspace; returns unexempted
/// findings (plus stale-waiver findings for dead allowlist entries and
/// dead `as-ok` comments).
pub fn analyze_workspace(root: &Path, allow: &[AllowEntry]) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    for krate in LIB_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        for file in collect_rs_files(&src_dir)? {
            let text = fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            findings.extend(determinism_scan(&rel_path(root, &file), &text));
        }
    }
    for krate in HOT_PATH_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        for file in collect_rs_files(&src_dir)? {
            let text = fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            findings.extend(cast_scan(&rel_path(root, &file), &text));
        }
    }
    findings.extend(layering_check(root)?);
    Ok(filter_with_stale_check(findings, allow, ANALYZE_CHECKS))
}

// ---------------------------------------------------------------------------
// Determinism auditor
// ---------------------------------------------------------------------------

/// Scans one library source file for determinism hazards (tests exempt).
pub fn determinism_scan(file: &str, text: &str) -> Vec<Finding> {
    let toks = lex(text);
    let in_test = cfg_test_mask(&toks);
    let lines: Vec<&str> = text.lines().collect();
    let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut findings = Vec::new();
    for (si, &ti) in sig.iter().enumerate() {
        if in_test[ti] {
            continue;
        }
        let t = &toks[ti];
        if t.kind != TokKind::Ident {
            continue;
        }
        let check = match t.text {
            "HashMap" | "HashSet" => Some("det-collection"),
            "SystemTime" | "Instant" => Some("det-clock"),
            "RandomState" => Some("det-random"),
            "env" => {
                // `std :: env` — other `env` idents (variables, `env!`) are
                // not ambient-state reads.
                let prev2 = si.checked_sub(2).map(|p| &toks[sig[p]]);
                let prev1 = si.checked_sub(1).map(|p| &toks[sig[p]]);
                let from_std = prev1.is_some_and(|t| t.kind == TokKind::Punct && t.text == "::")
                    && prev2.is_some_and(|t| t.kind == TokKind::Ident && t.text == "std");
                from_std.then_some("det-env")
            }
            _ => None,
        };
        if let Some(check) = check {
            findings.push(Finding {
                file: file.to_string(),
                line: t.line,
                check,
                excerpt: lines.get(t.line - 1).copied().unwrap_or(t.text).to_string(),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Cast-safety lint
// ---------------------------------------------------------------------------

/// A numeric type as seen by the cast checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Num {
    /// Unsigned integer with the given bit width.
    U(u32),
    /// Signed integer with the given bit width.
    I(u32),
    /// Float with the given mantissa width (f32: 24, f64: 53).
    F(u32),
}

/// Numeric type named by an identifier, if any. `usize`/`isize` are
/// treated as 64-bit: the supported targets (and every machine the figures
/// are produced on) are 64-bit, and a 32-bit port would make casts *less*
/// safe, never more.
fn numeric_type(name: &str) -> Option<Num> {
    Some(match name {
        "u8" => Num::U(8),
        "u16" => Num::U(16),
        "u32" => Num::U(32),
        "u64" | "usize" => Num::U(64),
        "u128" => Num::U(128),
        "i8" => Num::I(8),
        "i16" => Num::I(16),
        "i32" => Num::I(32),
        "i64" | "isize" => Num::I(64),
        "i128" => Num::I(128),
        "f32" => Num::F(24),
        "f64" => Num::F(53),
        _ => return None,
    })
}

/// True when every value of `src` is exactly representable in `dst`
/// (widening: no truncation, no sign change, no rounding).
fn widens(src: Num, dst: Num) -> bool {
    match (src, dst) {
        (Num::U(s), Num::U(d)) => s <= d,
        (Num::U(s), Num::I(d)) => s < d,
        (Num::I(s), Num::I(d)) => s <= d,
        (Num::I(_), Num::U(_)) => false,
        (Num::U(s), Num::F(m)) => s <= m,
        (Num::I(s), Num::F(m)) => s - 1 <= m,
        (Num::F(s), Num::F(d)) => s <= d,
        (Num::F(_), _) => false,
    }
}

/// True when the integer literal value `v` is exactly representable in
/// `dst` (e.g. `255 as u8`, `1 as f64`).
fn literal_fits(v: u128, dst: Num) -> bool {
    match dst {
        Num::U(b) => b >= 128 || v < (1u128 << b),
        Num::I(b) => v < (1u128 << (b - 1)),
        Num::F(m) => v <= (1u128 << m),
    }
}

/// Parses a decimal / hex / octal / binary integer literal token value.
fn literal_value(text: &str) -> Option<u128> {
    let suffix = literal_suffix(text);
    let raw = text[..text.len() - suffix.len()].replace('_', "");
    let raw = raw.as_str();
    if let Some(hex) = raw.strip_prefix("0x") {
        u128::from_str_radix(hex, 16).ok()
    } else if let Some(oct) = raw.strip_prefix("0o") {
        u128::from_str_radix(oct, 8).ok()
    } else if let Some(bin) = raw.strip_prefix("0b") {
        u128::from_str_radix(bin, 2).ok()
    } else {
        raw.parse().ok()
    }
}

/// Scans one hot-path source file for lossy numeric `as` casts (tests
/// exempt). A cast passes without a waiver when the token stream proves it
/// widening:
///
/// - the cast operand is an integer literal whose value fits the target
///   exactly (`255 as u8`, `1 as f64`);
/// - the operand carries a type suffix that widens into the target
///   (`7u32 as u64`);
/// - the cast extends a chain whose previous target widens into the new
///   one (`x as u32 as u64` — the second cast is safe whatever `x` is).
///
/// Anything else needs `// as-ok: <reason>` on the same or the preceding
/// line. `as-ok` comments covering no cast are reported as
/// `stale-cast-waiver`.
pub fn cast_scan(file: &str, text: &str) -> Vec<Finding> {
    let toks = lex(text);
    let in_test = cfg_test_mask(&toks);
    let lines: Vec<&str> = text.lines().collect();
    let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    // Lines carrying an `as-ok:` waiver comment.
    let waiver_lines: BTreeSet<usize> = toks
        .iter()
        .filter(|t| t.is_comment() && t.text.contains("as-ok:"))
        .map(|t| t.line)
        .collect();
    let mut cast_lines: BTreeSet<usize> = BTreeSet::new();
    let mut findings = Vec::new();
    for (si, &ti) in sig.iter().enumerate() {
        let t = &toks[ti];
        if !(t.kind == TokKind::Ident && t.text == "as") {
            continue;
        }
        let Some(&next_ti) = sig.get(si + 1) else {
            continue;
        };
        let next = &toks[next_ti];
        let Some(dst) = (next.kind == TokKind::Ident)
            .then(|| numeric_type(next.text))
            .flatten()
        else {
            continue;
        };
        cast_lines.insert(t.line);
        if in_test[ti] {
            continue;
        }
        let prev = si.checked_sub(1).map(|p| &toks[sig[p]]);
        let prev2 = si.checked_sub(2).map(|p| &toks[sig[p]]);
        let proven = match prev {
            // `7u32 as u64` / `255 as u8` / `1.5 as f64`.
            Some(p) if matches!(p.kind, TokKind::Int | TokKind::Float) => {
                let suffix = literal_suffix(p.text);
                if let Some(src) = numeric_type(suffix) {
                    widens(src, dst)
                } else if p.kind == TokKind::Int {
                    literal_value(p.text).is_some_and(|v| literal_fits(v, dst))
                } else {
                    // Unsuffixed float literal: defaults to f64.
                    widens(Num::F(53), dst)
                }
            }
            // `… as u32 as u64`: the previous cast target is the source.
            Some(p) if p.kind == TokKind::Ident => match numeric_type(p.text) {
                Some(src) if prev2.is_some_and(|q| q.kind == TokKind::Ident && q.text == "as") => {
                    widens(src, dst)
                }
                _ => false,
            },
            _ => false,
        };
        let waived =
            waiver_lines.contains(&t.line) || (t.line > 1 && waiver_lines.contains(&(t.line - 1)));
        if !proven && !waived {
            findings.push(Finding {
                file: file.to_string(),
                line: t.line,
                check: "cast-lossy",
                excerpt: lines.get(t.line - 1).copied().unwrap_or(t.text).to_string(),
            });
        }
    }
    // A waiver comment is live when a numeric cast sits on its own line or
    // the one after it (trailing and comment-above styles).
    for &w in &waiver_lines {
        if !cast_lines.contains(&w) && !cast_lines.contains(&(w + 1)) {
            findings.push(Finding {
                file: file.to_string(),
                line: w,
                check: "stale-cast-waiver",
                excerpt: format!("`as-ok:` waiver on line {w} covers no numeric cast — remove it"),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Crate-layering checker
// ---------------------------------------------------------------------------

/// Workspace-crate dependencies declared in one `Cargo.toml`.
#[derive(Debug, Default, PartialEq)]
pub struct ManifestDeps {
    /// Crates under `[dependencies]` (including optional ones).
    pub normal: Vec<String>,
    /// Crates under `[dev-dependencies]`.
    pub dev: Vec<String>,
}

/// Extracts `lunule-*` dependency names from a `Cargo.toml` text. The
/// manifests in this workspace are flat `name = { workspace = true }`
/// entries, so a section-aware line parser is sufficient (and keeps xtask
/// std-only).
pub fn parse_manifest_deps(text: &str) -> ManifestDeps {
    let mut out = ManifestDeps::default();
    let mut section = String::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') && line.ends_with(']') {
            section = line[1..line.len() - 1].to_string();
            continue;
        }
        let Some((key, _)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if !(key.starts_with("lunule-") || key == "lunule") {
            continue;
        }
        match section.as_str() {
            "dependencies" => out.normal.push(key.to_string()),
            "dev-dependencies" => out.dev.push(key.to_string()),
            _ => {}
        }
    }
    out
}

/// Source-level references to workspace crates: `lunule_foo` identifiers in
/// code tokens (comments, strings and doc examples excluded).
pub fn source_crate_refs(text: &str) -> BTreeSet<String> {
    lex(text)
        .iter()
        .filter(|t| t.kind == TokKind::Ident && t.text.starts_with("lunule_"))
        .map(|t| t.text.replace('_', "-"))
        .collect()
}

/// Checks the whole workspace against [`LAYERING`]: table self-consistency
/// (known names, acyclicity), every crate directory present in the table,
/// declared dependencies within the allowed set, and source references
/// covered by declared dependencies.
pub fn layering_check(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    // Table self-check: deps name known crates, and the DAG is acyclic.
    for layer in LAYERING {
        for dep in layer.deps {
            if !LAYERING.iter().any(|l| l.name == *dep) {
                return Err(format!(
                    "layering table: `{}` lists unknown crate `{dep}`",
                    layer.name
                ));
            }
        }
    }
    if topo_layers().is_none() {
        return Err("layering table contains a dependency cycle".to_string());
    }
    // Every crates/ directory must be in the table.
    let crates_dir = root.join("crates");
    let entries =
        fs::read_dir(&crates_dir).map_err(|e| format!("{}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", crates_dir.display()))?;
        if !entry.path().is_dir() {
            continue;
        }
        let dir = format!("crates/{}", entry.file_name().to_string_lossy());
        if !LAYERING.iter().any(|l| l.dir == dir) {
            findings.push(Finding {
                file: format!("{dir}/Cargo.toml"),
                line: 1,
                check: "layering",
                excerpt: format!(
                    "crate directory `{dir}` is not in the layering table — place it in the DAG"
                ),
            });
        }
    }
    for layer in LAYERING {
        let manifest_path = root.join(layer.dir).join("Cargo.toml");
        let manifest_rel = format!(
            "{}Cargo.toml",
            if layer.dir == "." {
                String::new()
            } else {
                format!("{}/", layer.dir)
            }
        );
        let text = fs::read_to_string(&manifest_path)
            .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
        let deps = parse_manifest_deps(&text);
        for dep in &deps.normal {
            if !layer.deps.contains(&dep.as_str()) {
                findings.push(Finding {
                    file: manifest_rel.clone(),
                    line: 1,
                    check: "layering",
                    excerpt: format!(
                        "`{}` must not depend on `{dep}` (back-edge in the layering DAG)",
                        layer.name
                    ),
                });
            }
        }
        // Source references must be declared (normal or dev — dev covers
        // `#[cfg(test)]` modules compiled into the lib target).
        let src_dir = root.join(layer.dir).join("src");
        let declared: BTreeSet<&str> = deps
            .normal
            .iter()
            .chain(deps.dev.iter())
            .map(String::as_str)
            .collect();
        for file in collect_rs_files(&src_dir)? {
            let text = fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            for reference in source_crate_refs(&text) {
                // Only idents naming actual workspace crates count — local
                // `lunule_*` identifiers (functions, variables) do not.
                if !LAYERING.iter().any(|l| l.name == reference) {
                    continue;
                }
                if reference != layer.name && !declared.contains(reference.as_str()) {
                    findings.push(Finding {
                        file: rel_path(root, &file),
                        line: 1,
                        check: "layering",
                        excerpt: format!(
                            "references `{reference}` without declaring it in {manifest_rel}"
                        ),
                    });
                }
            }
        }
    }
    Ok(findings)
}

/// Topological layer index of every crate in [`LAYERING`] (0 = lowest), or
/// `None` if the table has a cycle. Used for the self-check and the
/// human-readable report.
pub fn topo_layers() -> Option<Vec<(&'static str, usize)>> {
    let mut layers: Vec<Option<usize>> = vec![None; LAYERING.len()];
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (i, l) in LAYERING.iter().enumerate() {
            if layers[i].is_some() {
                continue;
            }
            let dep_layers: Option<Vec<usize>> = l
                .deps
                .iter()
                .map(|d| {
                    LAYERING
                        .iter()
                        .position(|x| x.name == *d)
                        .and_then(|j| layers[j])
                })
                .collect();
            if let Some(ds) = dep_layers {
                layers[i] = Some(ds.iter().max().map_or(0, |m| m + 1));
                progressed = true;
            }
        }
    }
    layers
        .iter()
        .enumerate()
        .map(|(i, l)| l.map(|v| (LAYERING[i].name, v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- determinism ---------------------------------------------------------

    #[test]
    fn hash_collections_are_flagged_in_code_only() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        let findings = determinism_scan("lib.rs", src);
        assert_eq!(findings.len(), 3);
        assert!(findings.iter().all(|f| f.check == "det-collection"));
        // The same text inside comments and strings is invisible.
        let clean = "// HashMap is banned\nfn f() { let s = \"HashSet\"; let _ = s; }\n";
        assert!(determinism_scan("lib.rs", clean).is_empty());
    }

    #[test]
    fn wall_clocks_env_and_randomstate_are_flagged() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n    let s = std::time::SystemTime::now();\n    let v = std::env::var(\"X\");\n    let h: std::collections::hash_map::RandomState = Default::default();\n}\n";
        let checks: Vec<&str> = determinism_scan("lib.rs", src)
            .iter()
            .map(|f| f.check)
            .collect();
        assert_eq!(
            checks,
            vec!["det-clock", "det-clock", "det-env", "det-random"]
        );
    }

    #[test]
    fn env_ident_alone_is_not_flagged() {
        let src = "fn f(env: u32) -> u32 { env + 1 }\n";
        assert!(determinism_scan("lib.rs", src).is_empty());
    }

    #[test]
    fn tests_may_use_hash_collections() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { let _ = HashMap::<u32, u32>::new(); }\n}\n";
        assert!(determinism_scan("lib.rs", src).is_empty());
    }

    // -- cast safety ---------------------------------------------------------

    #[test]
    fn widening_matrix() {
        assert!(widens(Num::U(32), Num::U(64)));
        assert!(widens(Num::U(32), Num::I(64)));
        assert!(widens(Num::U(32), Num::F(53)));
        assert!(widens(Num::I(32), Num::F(53)));
        assert!(widens(Num::F(24), Num::F(53)));
        assert!(!widens(Num::U(64), Num::U(32)), "narrowing");
        assert!(
            !widens(Num::U(64), Num::F(53)),
            "u64 -> f64 loses precision"
        );
        assert!(!widens(Num::I(32), Num::U(64)), "sign-changing");
        assert!(
            !widens(Num::U(32), Num::F(24)),
            "u32 -> f32 loses precision"
        );
        assert!(!widens(Num::F(53), Num::I(64)), "float -> int truncates");
    }

    #[test]
    fn suffixed_and_fitting_literals_pass() {
        let clean = "fn f() -> u64 { 7u32 as u64 }\nfn g() -> u8 { 255 as u8 }\nfn h() -> f64 { 1 as f64 }\nfn k() -> u64 { 0xFF as u64 }\n";
        assert!(
            cast_scan("lib.rs", clean).is_empty(),
            "{:?}",
            cast_scan("lib.rs", clean)
        );
    }

    #[test]
    fn non_fitting_literal_is_flagged() {
        let src = "fn f() -> u8 { 256 as u8 }\n";
        let findings = cast_scan("lib.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].check, "cast-lossy");
    }

    #[test]
    fn unknown_source_requires_waiver() {
        let flagged = "fn f(x: u64) -> u32 { x as u32 }\n";
        assert_eq!(cast_scan("lib.rs", flagged).len(), 1);
        let waived = "fn f(x: u64) -> u32 { x as u32 } // as-ok: x is a rank index < 2^16\n";
        assert!(cast_scan("lib.rs", waived).is_empty());
        let waived_above =
            "fn f(x: u64) -> u32 {\n    // as-ok: x is a rank index < 2^16\n    x as u32\n}\n";
        assert!(cast_scan("lib.rs", waived_above).is_empty());
    }

    #[test]
    fn cast_chains_prove_widening() {
        let clean = "fn f(x: MyId) -> u64 { x.raw() as u32 as u64 } // as-ok: raw is u32\n";
        assert!(cast_scan("lib.rs", clean).is_empty());
        // Chain that narrows is still flagged.
        let dirty = "fn f(x: u8) -> u32 { x as u64 as u32 } // first cast unproven too\n";
        assert_eq!(cast_scan("lib.rs", dirty).len(), 2);
    }

    #[test]
    fn non_numeric_as_is_ignored() {
        let src = "use std::fmt as f;\nfn g(x: &dyn std::any::Any) { let _ = x as &dyn std::any::Any; }\n";
        assert!(cast_scan("lib.rs", src).is_empty());
    }

    #[test]
    fn casts_in_tests_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let x = 3.7_f64 as u32; let _ = x; }\n}\n";
        assert!(cast_scan("lib.rs", src).is_empty());
    }

    #[test]
    fn stale_as_ok_comment_is_flagged() {
        let src = "// as-ok: nothing here anymore\nfn f() {}\n";
        let findings = cast_scan("lib.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].check, "stale-cast-waiver");
    }

    #[test]
    fn waiver_on_test_cast_is_not_stale() {
        // The cast is exempt (test code) but the waiver still covers a
        // cast line, so it is not reported stale.
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = 3.7 as u32; } // as-ok: test\n}\n";
        assert!(cast_scan("lib.rs", src).is_empty());
    }

    // -- layering ------------------------------------------------------------

    #[test]
    fn manifest_dep_parsing() {
        let toml = "[package]\nname = \"lunule-sim\"\n\n[dependencies]\nlunule-core = { workspace = true }\nlunule-verify = { workspace = true, optional = true }\nserde = \"1\"\n\n[dev-dependencies]\nlunule-workloads = { workspace = true }\n";
        let deps = parse_manifest_deps(toml);
        assert_eq!(deps.normal, vec!["lunule-core", "lunule-verify"]);
        assert_eq!(deps.dev, vec!["lunule-workloads"]);
    }

    #[test]
    fn source_refs_ignore_comments_and_strings() {
        let src = "//! uses lunule_core in docs\nuse lunule_namespace::InodeId;\nfn f() { let s = \"lunule_sim\"; let _ = (s, lunule_util::Json::Null); }\n";
        let refs = source_crate_refs(src);
        assert_eq!(
            refs.into_iter().collect::<Vec<_>>(),
            vec!["lunule-namespace", "lunule-util"]
        );
    }

    #[test]
    fn layering_table_is_acyclic_and_layered() {
        let layers = topo_layers().expect("table must be acyclic");
        let layer_of = |name: &str| layers.iter().find(|(n, _)| *n == name).map(|(_, l)| *l);
        assert_eq!(layer_of("lunule-util"), Some(0));
        assert!(layer_of("lunule-core") < layer_of("lunule-sim"));
        assert!(layer_of("lunule-sim") < layer_of("lunule-workloads"));
        assert!(layer_of("lunule-workloads") < layer_of("lunule-bench"));
    }

    #[test]
    fn real_workspace_layering_is_clean() {
        let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .map(Path::to_path_buf)
            .unwrap();
        let findings = layering_check(&root).unwrap();
        assert!(
            findings.is_empty(),
            "layering must stay clean:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
