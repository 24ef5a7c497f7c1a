//! The project rules clippy cannot express: the crate-layering checker,
//! the crate-root check and the float-literal rule.
//!
//! Every per-expression rule (no unwrap/expect/panic or prints in library
//! code, the determinism bans, the cast lints) is a clippy lint: the
//! crate roots enable them and `clippy.toml` configures the bans (DESIGN
//! §6.1–6.2). What stays here needs a view of the workspace or a rule
//! clippy does not have.
//!
//! ## Crate-layering checker (`layering`)
//!
//! [`LAYERING`] declares the workspace dependency DAG. The checker fails
//! on back-edges: a `[dependencies]` entry (or a `lunule_*` source
//! reference) not in the declared allowed set, a crate missing from the
//! table, or a cycle in the table itself.
//!
//! ## Crate roots (`crate-root`)
//!
//! Every library crate root (and the daemon's `main.rs`) must carry
//! [`ROOT_ATTRIBUTES`]: `#![forbid(unsafe_code)]`, `#![warn(missing_docs)]`
//! and the shared lint block, which warns on the project rules in non-test
//! builds and exempts `#[cfg(test)]` code from the determinism bans. A new
//! library crate cannot skip the rules by leaving its root bare.
//!
//! ## Float literals (`float-eq`)
//!
//! No `==` / `!=` against a floating-point literal in library code, tests
//! exempt. Clippy's `float_cmp` exempts comparisons with zero; this rule
//! refuses `x == 0.0` too.

use crate::lexer::{lex, Tok, TokKind};
use crate::{collect_rs_files, rel_path, Finding, LIB_CRATES};
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The attributes every library crate root carries, each as its tokens
/// joined without whitespace. The third is a prefix: a root may warn on
/// more lints after these (the hot-path crates add the cast lints).
pub const ROOT_ATTRIBUTES: &[&str] = &[
    "#![forbid(unsafe_code)]",
    "#![warn(missing_docs)]",
    "#![cfg_attr(not(test),warn(clippy::unwrap_used,clippy::expect_used,clippy::panic,\
     clippy::print_stdout,clippy::print_stderr,clippy::float_cmp",
    "#![cfg_attr(test,allow(clippy::disallowed_types,clippy::disallowed_methods))]",
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

/// Runs the three passes over the workspace and returns every finding.
pub fn analyze_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    for krate in LIB_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        for file in collect_rs_files(&src_dir)? {
            let text = fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let rel = rel_path(root, &file);
            findings.extend(float_literal_scan(&rel, &text));
            if file.parent() == Some(src_dir.as_path())
                && file
                    .file_name()
                    .is_some_and(|n| n == "lib.rs" || n == "main.rs")
            {
                findings.extend(check_crate_root(&rel, &text));
            }
        }
    }
    findings.extend(layering_check(root)?);
    Ok(findings)
}

// ---------------------------------------------------------------------------
// Crate roots
// ---------------------------------------------------------------------------

/// Checks that a crate root carries every attribute of
/// [`ROOT_ATTRIBUTES`], compared on code tokens, so comments and
/// formatting do not matter.
pub fn check_crate_root(file: &str, text: &str) -> Vec<Finding> {
    let code: String = lex(text)
        .iter()
        .filter(|t| !t.is_comment())
        .map(|t| t.text)
        .collect();
    ROOT_ATTRIBUTES
        .iter()
        .filter(|attr| !code.contains(*attr))
        .map(|attr| Finding {
            file: file.to_string(),
            line: 1,
            check: "crate-root",
            excerpt: format!("crate root lacks `{attr}`"),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Float literals
// ---------------------------------------------------------------------------

/// Scans one library source file for `==` / `!=` against a float literal
/// (tests exempt).
pub fn float_literal_scan(file: &str, text: &str) -> Vec<Finding> {
    let toks = lex(text);
    let in_test = cfg_test_mask(&toks);
    let lines: Vec<&str> = text.lines().collect();
    let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let float = |s: Option<&usize>| s.is_some_and(|&i| toks[i].kind == TokKind::Float);
    let mut findings = Vec::new();
    for (si, &ti) in sig.iter().enumerate() {
        let t = &toks[ti];
        if in_test[ti] || t.kind != TokKind::Punct || !(t.text == "==" || t.text == "!=") {
            continue;
        }
        let prev = si.checked_sub(1).and_then(|p| sig.get(p));
        if float(prev) || float(sig.get(si + 1)) {
            findings.push(Finding {
                file: file.to_string(),
                line: t.line,
                check: "float-eq",
                excerpt: lines.get(t.line - 1).copied().unwrap_or(t.text).to_string(),
            });
        }
    }
    findings
}

/// Per-token mask: `true` for tokens inside a `#[cfg(test)]`-gated item.
///
/// After a `#[cfg(test)]` attribute, any further attributes are skipped,
/// then the gated item extends to its closing brace (brace-matched on
/// tokens) or, for brace-less items like `use`, to the first `;`.
pub fn cfg_test_mask(toks: &[Tok<'_>]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let is = |s: usize, kind: TokKind, text: &str| {
        sig.get(s)
            .is_some_and(|&i| toks[i].kind == kind && toks[i].text == text)
    };
    let mut s = 0;
    while s < sig.len() {
        let attr_here = is(s, TokKind::Punct, "#")
            && is(s + 1, TokKind::Punct, "[")
            && is(s + 2, TokKind::Ident, "cfg")
            && is(s + 3, TokKind::Punct, "(")
            && is(s + 4, TokKind::Ident, "test")
            && is(s + 5, TokKind::Punct, ")")
            && is(s + 6, TokKind::Punct, "]");
        if !attr_here {
            s += 1;
            continue;
        }
        let start = s;
        s += 7;
        // Skip any further attributes (`#[test]`, `#[allow(...)]`, …).
        while is(s, TokKind::Punct, "#") && is(s + 1, TokKind::Punct, "[") {
            let mut depth = 0usize;
            while s < sig.len() {
                if is(s, TokKind::Punct, "[") {
                    depth += 1;
                } else if is(s, TokKind::Punct, "]") {
                    depth -= 1;
                    if depth == 0 {
                        s += 1;
                        break;
                    }
                }
                s += 1;
            }
        }
        // The gated item: to the matching close brace, or `;` if brace-less.
        let mut depth = 0usize;
        let mut opened = false;
        while s < sig.len() {
            if !opened && is(s, TokKind::Punct, ";") {
                s += 1;
                break;
            }
            if is(s, TokKind::Punct, "{") {
                depth += 1;
                opened = true;
            } else if is(s, TokKind::Punct, "}") {
                depth = depth.saturating_sub(1);
                if opened && depth == 0 {
                    s += 1;
                    break;
                }
            }
            s += 1;
        }
        let end_tok = sig
            .get(s.saturating_sub(1))
            .copied()
            .unwrap_or(toks.len() - 1);
        for m in &mut mask[sig[start]..=end_tok] {
            *m = true;
        }
    }
    mask
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

    // -- crate roots ---------------------------------------------------------

    const GOOD_ROOT: &str = "//! Docs.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n#![cfg_attr(\n    not(test),\n    warn(\n        clippy::unwrap_used,\n        clippy::expect_used,\n        clippy::panic,\n        clippy::print_stdout,\n        clippy::print_stderr,\n        clippy::float_cmp,\n        clippy::cast_sign_loss\n    )\n)]\n#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]\nfn f() {}\n";

    #[test]
    fn crate_root_checks_every_attribute_on_code_tokens() {
        let lacks = |src: &str| check_crate_root("lib.rs", src).len();
        assert_eq!(lacks(GOOD_ROOT), 0);
        assert_eq!(lacks("fn f() {}\n"), ROOT_ATTRIBUTES.len());
        assert_eq!(lacks(&GOOD_ROOT.replace("clippy::panic,", "")), 1);
        assert_eq!(lacks(&GOOD_ROOT.replace("test, allow", "test, warn")), 1);
        assert_eq!(lacks(&GOOD_ROOT.replace("#![forbid", "// #![forbid")), 1);
    }

    // -- float literals ------------------------------------------------------

    #[test]
    fn float_equality_is_flagged() {
        let hits =
            |src: &str| !float_literal_scan("lib.rs", &format!("fn f() {{ {src} }}")).is_empty();
        assert!(hits("if x == 1.0 {}"));
        assert!(hits("if x == 0.0 {}"));
        assert!(hits("if 0.5 != y {}"));
        assert!(hits("assert!(v == 1e-9);"));
        assert!(!hits("if x == 1 {}"));
        assert!(!hits("let r = 0.0..=1.0;"));
        assert!(!hits("if x <= 1.0 {}"));
        assert!(!hits("if x.to_bits() == y.to_bits() {}"));
        assert!(!hits("match x { 1 => 2.0, _ => 3.0 };"));
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        assert!(g() == 1.0);\n    }\n}\n";
        assert!(float_literal_scan("lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_on_braceless_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse helper::g;\nfn f() -> bool { g() == 1.0 }\n";
        let findings = float_literal_scan("lib.rs", src);
        assert_eq!(findings.len(), 1, "code after the gated use is scanned");
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn comments_and_strings_are_exempt() {
        let src = "//! x == 1.0\n/// y != 0.5\nfn f() {\n    let s = \"z == 2.0\";\n    /* w == 3.0 */\n    let _ = s;\n}\n";
        assert!(float_literal_scan("lib.rs", src).is_empty());
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
}
