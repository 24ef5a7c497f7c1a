//! The project rules clippy cannot express: the crate-layering checker,
//! the crate-root check, the float-literal rule and the unused-api pass.
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
//! table, or a cycle in the table itself. It also fails on a
//! `[dependencies]` entry that no file under the package's `src/` names,
//! which belongs under `[dev-dependencies]` or nowhere.
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
//!
//! ## Public API nothing calls (`unused-api`)
//!
//! Every unrestricted `pub` item of a library crate must be named by some
//! code outside its definition (see [`unused_api_scan`] for what counts).
//! rustc's `dead_code` treats every `pub` item of a library as used, and
//! already reports unused `pub(crate)` and private items, so the pass
//! collects only plain `pub` ones.

use crate::lexer::{lex, Tok, TokKind};
use crate::{collect_rs_files, rel_path, Finding, LIB_CRATES};
use std::collections::{BTreeMap, BTreeSet};
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

/// Runs the four passes over the workspace and returns every finding.
pub fn analyze_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    for dir in USE_ROOTS {
        for file in collect_rs_files(&root.join(dir))? {
            let text = fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            files.push((rel_path(root, &file), text));
        }
    }
    let mut findings = Vec::new();
    for (path, text) in &files {
        let Some((krate, file)) = path
            .strip_prefix("crates/")
            .and_then(|p| p.split_once("/src/"))
        else {
            continue;
        };
        if LIB_CRATES.contains(&krate) {
            findings.extend(float_literal_scan(path, text));
            if file == "lib.rs" || file == "main.rs" {
                findings.extend(check_crate_root(path, text));
            }
        }
    }
    findings.extend(layering_check(root)?);
    findings.extend(unused_api_scan(&files));
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

/// Per-token mask: `true` for tokens inside a `#[cfg(test)]`-gated item,
/// through its matching close brace, or its `;` if one comes first.
pub fn cfg_test_mask(toks: &[Tok<'_>]) -> Vec<bool> {
    item_mask(toks, &["#", "[", "cfg", "(", "test", ")", "]"])
}

/// Per-token mask: `true` inside every item whose code tokens begin with
/// `head`, through the item's matching close brace, or its `;` if one
/// comes before any brace. Attributes contain neither, so the mask of a
/// `#[cfg(test)]` runs through any attributes after it to the item.
fn item_mask(toks: &[Tok<'_>], head: &[&str]) -> Vec<bool> {
    let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let text = |s: usize| sig.get(s).map_or("", |&i| toks[i].text);
    let mut mask = vec![false; toks.len()];
    let mut s = 0;
    while s < sig.len() {
        if !head.iter().enumerate().all(|(k, h)| text(s + k) == *h) {
            s += 1;
            continue;
        }
        let start = s;
        let (mut depth, mut opened) = (0usize, false);
        while s < sig.len() {
            s += 1;
            match text(s - 1) {
                ";" if !opened => break,
                "{" => (depth, opened) = (depth + 1, true),
                "}" if opened && depth == 1 => break,
                "}" => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        mask[sig[start]..=sig[s - 1]].fill(true);
    }
    mask
}

// ---------------------------------------------------------------------------
// Public API nothing calls
// ---------------------------------------------------------------------------

/// The directories whose `.rs` files `analyze` reads.
const USE_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "benchmark"];

/// The package a repo-relative path belongs to: `crates/<name>` for a
/// workspace crate, `benchmark`, or `.` (the facade) for the root `src/`,
/// `tests/` and `examples/`.
fn package_of(path: &str) -> &str {
    match path.strip_prefix("crates/").and_then(|p| p.split_once('/')) {
        Some((name, _)) => &path[.."crates/".len() + name.len()],
        None if path.starts_with("benchmark/") => "benchmark",
        None => ".",
    }
}

/// True for a source file of a library target whose `pub` items the
/// unused-api pass collects: the `src/` of a [`LIB_CRATES`] crate or of
/// `lunule-bench`, less the binaries (`main.rs`, `src/bin/`).
fn is_api_file(path: &str) -> bool {
    path.strip_prefix("crates/")
        .and_then(|p| p.split_once("/src/"))
        .is_some_and(|(krate, file)| {
            (krate == "bench" || LIB_CRATES.contains(&krate))
                && file != "main.rs"
                && !file.starts_with("bin/")
        })
}

/// The name token and kind of every unrestricted `pub` item of one library
/// source file: fns, consts, statics, structs, enums with their variants,
/// traits, type aliases and named fields. Items inside `#[cfg(test)]` code
/// and `macro_rules!` bodies are skipped.
fn api_items<'a>(toks: &[Tok<'a>]) -> Vec<(usize, &'a str)> {
    let in_test = cfg_test_mask(toks);
    let in_macro = item_mask(toks, &["macro_rules", "!"]);
    let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let text = |s: usize| sig.get(s).map_or("", |&i| toks[i].text);
    let mut items = Vec::new();
    let mut push = |s: usize, kind| {
        if sig.get(s).is_some_and(|&i| toks[i].kind == TokKind::Ident) && text(s) != "_" {
            items.push((sig[s], kind));
        }
    };
    for s in 0..sig.len() {
        if in_test[sig[s]] || in_macro[sig[s]] || text(s) != "pub" || text(s + 1) == "(" {
            continue;
        }
        let mut k = s + 1;
        while matches!(text(k), "unsafe" | "async") || (text(k) == "const" && text(k + 1) == "fn") {
            k += 1;
        }
        let kind = match text(k) {
            kind @ ("fn" | "const" | "static" | "struct" | "enum" | "trait" | "type" | "union") => {
                kind
            }
            _ if text(k + 1) == ":" => {
                push(k, "field");
                continue;
            }
            _ => continue,
        };
        k += usize::from(text(k + 1) == "mut") + 1;
        push(k, kind);
        // An enum's variants: the idents at depth 1 of its body that follow
        // the `{`, a `,` or an attribute's `]`.
        let mut depth = 0usize;
        for j in (k + 1..sig.len()).take_while(|_| kind == "enum") {
            match text(j) {
                "{" | "(" | "[" => depth += 1,
                "}" if depth == 1 => break,
                "}" | ")" | "]" => depth = depth.saturating_sub(1),
                _ if depth == 1 && matches!(text(j - 1), "{" | "," | "]") => push(j, "variant"),
                _ => {}
            }
        }
    }
    items
}

/// Reports every unrestricted `pub` item of a library target that no code
/// names (DESIGN §6.2). `files` holds `(repo-relative path, text)` pairs:
/// items come from the library sources among them (see `api_items`), and
/// a use is an identifier token in code anywhere in them, except
///
/// - the name tokens of the collected items themselves, so that two dead
///   items of one name do not keep each other alive;
/// - tokens inside `use` items, so that a re-export is not a use;
/// - tokens in the defining package's own `#[cfg(test)]` code: an item
///   only those tests name can be gated `#[cfg(test)]` itself.
pub fn unused_api_scan(files: &[(String, String)]) -> Vec<Finding> {
    let lexed: Vec<(&str, Vec<Tok<'_>>)> = files
        .iter()
        .map(|(path, text)| (path.as_str(), lex(text)))
        .collect();
    let name = |f: usize, i: usize| lexed[f].1[i].text.trim_start_matches("r#");
    // (file, name token) -> kind, for every item.
    let mut items = BTreeMap::new();
    for (f, (path, toks)) in lexed.iter().enumerate() {
        if is_api_file(path) {
            items.extend(api_items(toks).into_iter().map(|(i, kind)| ((f, i), kind)));
        }
    }
    // name -> (uses outside `#[cfg(test)]` code, package of each use in it).
    let mut uses: BTreeMap<&str, (usize, Vec<&str>)> = items
        .keys()
        .map(|&(f, i)| (name(f, i), (0, Vec::new())))
        .collect();
    for (f, (path, toks)) in lexed.iter().enumerate() {
        let (in_test, in_use) = (cfg_test_mask(toks), item_mask(toks, &["use"]));
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || in_use[i] || items.contains_key(&(f, i)) {
                continue;
            }
            match uses.get_mut(name(f, i)) {
                Some((_, packages)) if in_test[i] => packages.push(package_of(path)),
                Some((live, _)) => *live += 1,
                None => {}
            }
        }
    }
    let mut findings = Vec::new();
    for (&(f, i), kind) in &items {
        let (path, toks) = &lexed[f];
        let (live, packages) = &uses[name(f, i)];
        if *live == 0 && packages.iter().all(|p| *p == package_of(path)) {
            findings.push(Finding {
                file: path.to_string(),
                line: toks[i].line,
                check: "unused-api",
                excerpt: format!(
                    "pub {kind} `{}`: no code names it but its own crate's tests \
                     (delete it, or gate it `#[cfg(test)]`)",
                    name(f, i)
                ),
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
/// (every dependency listed above its dependent, so the table is a known
/// acyclic order), every crate directory present in the table,
/// declared dependencies within the allowed set, source references
/// covered by declared dependencies, and every normal dependency named by
/// the package's `src/`.
pub fn layering_check(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    // Table self-check: listing each crate below its dependencies makes
    // the table a topological order, so it cannot hold a cycle.
    for (i, layer) in LAYERING.iter().enumerate() {
        if let Some(dep) = layer
            .deps
            .iter()
            .find(|dep| !LAYERING[..i].iter().any(|l| l.name == **dep))
        {
            return Err(format!(
                "layering table: `{}` lists `{dep}`, which is not a crate above it",
                layer.name
            ));
        }
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
        let mut named = BTreeSet::new();
        for file in collect_rs_files(&src_dir)? {
            let text = fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let refs = source_crate_refs(&text);
            named.extend(refs.iter().cloned());
            for reference in refs {
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
        // A normal dependency must be named by the package's own sources;
        // one that only its tests or examples name is a dev-dependency.
        for dep in deps.normal.iter().filter(|dep| !named.contains(*dep)) {
            findings.push(Finding {
                file: manifest_rel.clone(),
                line: 1,
                check: "layering",
                excerpt: format!(
                    "`{}` depends on `{dep}`, which no file under its src/ names",
                    layer.name
                ),
            });
        }
    }
    Ok(findings)
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

    // -- unused public API ---------------------------------------------------

    const CORE: &str = "crates/core/src/lib.rs";

    /// The names the unused-api pass flags over `files`, space-separated.
    fn flagged(files: &[(&str, &str)]) -> String {
        let files: Vec<_> = files
            .iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect();
        let names: Vec<_> = unused_api_scan(&files)
            .into_iter()
            .map(|f| f.excerpt.split('`').nth(1).unwrap_or("").to_string())
            .collect();
        names.join(" ")
    }

    #[test]
    fn unused_pub_items_of_every_kind_are_flagged() {
        let lib = "pub fn dead_fn() {}\npub const fn dead_const() {}\npub const DEAD: u32 = 1;\n\
            pub static mut DEAD_STATIC: u32 = 2;\npub type Alias = u32;\npub trait Tr {}\n\
            pub enum E { Live, #[default] DeadVariant(u32), Other { x: u8 } }\n\
            pub struct S { pub live: u32, pub dead_field: u32, hidden: u32 }\n\
            pub fn live() -> u32 { 0 }\nfn private() {}\npub(crate) fn crate_only() {}\n\
            macro_rules! m { () => { pub fn templated() {} } }\n\
            #[cfg(test)]\nmod tests { pub fn test_helper() {} }\n";
        let user = "fn f(s: S) -> u32 { let _ = (E::Live, E::Other { x: 1 }); s.live + live() }\n";
        let bin = "pub fn bin_only() {}\n";
        let files = [
            (CORE, lib),
            ("crates/sim/src/lib.rs", user),
            ("crates/core/src/main.rs", bin),
            ("crates/bench/src/bin/b.rs", bin),
        ];
        let dead = "dead_fn dead_const DEAD DEAD_STATIC Alias Tr DeadVariant dead_field";
        assert_eq!(flagged(&files), dead);
    }

    #[test]
    fn own_crate_tests_do_not_keep_an_item_alive() {
        let lib = "pub fn oracle() -> u32 { 0 }\n\
            #[cfg(test)]\nmod tests { #[test] fn t() { assert_eq!(super::oracle(), 0); } }\n";
        let sibling = "#[cfg(test)]\nmod tests { fn t() { crate::oracle(); } }\n";
        assert_eq!(
            flagged(&[(CORE, lib), ("crates/core/src/a.rs", sibling)]),
            "oracle"
        );
    }

    #[test]
    fn other_packages_tests_and_integration_tests_keep_an_item_alive() {
        let lib = "pub fn a() {}\npub fn b() {}\n";
        let unit = "#[cfg(test)]\nmod tests { fn t() { lunule_core::a(); } }\n";
        let integration = "fn t() { lunule_core::b(); }\n";
        assert_eq!(flagged(&[(CORE, lib)]), "a b");
        let sim = [
            ("crates/sim/src/lib.rs", unit),
            ("crates/core/tests/it.rs", integration),
        ];
        assert_eq!(flagged(&[(CORE, lib), sim[0], sim[1]]), "");
        let root = [
            ("tests/it.rs", unit),
            ("benchmark/src/main.rs", integration),
        ];
        assert_eq!(flagged(&[(CORE, lib), root[0], root[1]]), "");
    }

    #[test]
    fn re_exports_doc_links_comments_and_strings_are_not_uses() {
        let lib = "pub mod m { pub fn shown() {} }\npub use m::shown;\n\
            /// Calls [`shown`].\npub fn documented() { let _ = \"shown\"; /* shown */ }\n";
        let facade = "pub use lunule_core::{documented, shown};\n";
        let example = "fn main() { lunule::documented(); }\n";
        let files = [
            (CORE, lib),
            ("src/lib.rs", facade),
            ("examples/e.rs", example),
        ];
        assert_eq!(flagged(&files), "shown");
    }

    #[test]
    fn same_named_dead_items_are_both_flagged() {
        let a = "pub fn len() -> usize { 0 }\n";
        let b = "pub struct T;\nimpl T { pub fn len(&self) -> usize { 1 } }\n";
        let user = "fn f(t: lunule_sim::T) {}\n";
        let files = [
            (CORE, a),
            ("crates/sim/src/lib.rs", b),
            ("tests/a.rs", user),
        ];
        assert_eq!(flagged(&files), "len len");
        // Uses match by name: one call keeps every item of that name.
        let caller = "fn g(t: lunule_sim::T) -> usize { t.len() }\n";
        assert_eq!(flagged(&[files[0], files[1], ("tests/b.rs", caller)]), "");
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
}
