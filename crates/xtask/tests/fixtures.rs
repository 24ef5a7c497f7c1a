//! Fixture-driven integration tests for the analysis passes: the lexer
//! tour (lexed, never compiled), the layering checker on a synthetic
//! workspace, and the real workspace, which must be clean.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use xtask::analyze::{analyze_workspace, layering_check, CrateLayer, LAYERING};
use xtask::lexer::{lex, literal_suffix, TokKind};
use xtask::workspace_root;

const LEXER_TOUR: &str = include_str!("fixtures/lexer_tour.rs");

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[test]
fn lexer_tour_classifies_every_token_shape() {
    let toks = lex(LEXER_TOUR);
    let count = |k: TokKind| toks.iter().filter(|t| t.kind == k).count();

    assert_eq!(count(TokKind::Str), 3, "plain, byte, and final string");
    assert_eq!(count(TokKind::RawStr), 2, "r#…# and br##…##");
    assert_eq!(count(TokKind::Char), 2, "escaped quote and newline chars");
    assert_eq!(count(TokKind::Lifetime), 3, "two 'a plus 'static");
    assert_eq!(count(TokKind::BlockComment), 1, "nested block is one token");
    assert_eq!(
        count(TokKind::LineComment),
        3,
        "two doc lines plus trailing"
    );

    // Raw identifier, not a raw string: both `r#type` occurrences.
    let raw_idents = toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident && t.text == "r#type")
        .count();
    assert_eq!(raw_idents, 2);

    // `0x1f32` is an integer whose hex digits spell a float suffix.
    let hex = toks
        .iter()
        .find(|t| t.text == "0x1f32")
        .expect("hex literal present");
    assert_eq!(hex.kind, TokKind::Int);
    assert_eq!(literal_suffix(hex.text), "");

    // `2.5e-3_f32` is one float token with a real suffix.
    let exp = toks
        .iter()
        .find(|t| t.text == "2.5e-3_f32")
        .expect("exponent literal present");
    assert_eq!(exp.kind, TokKind::Float);
    assert_eq!(literal_suffix(exp.text), "f32");

    // `0..10` produced a range punct, not a float.
    assert!(toks
        .iter()
        .any(|t| t.kind == TokKind::Punct && t.text == ".."));
}

// ---------------------------------------------------------------------------
// Crate-layering checker (synthetic workspace)
// ---------------------------------------------------------------------------

/// Materialises a minimal fake workspace matching [`LAYERING`], applies
/// `mutate` to it, runs [`layering_check`], cleans up, and returns the
/// findings' excerpts.
fn layering_findings_with(tag: &str, mutate: impl Fn(&PathBuf)) -> Vec<String> {
    let root = std::env::temp_dir().join(format!("xtask-layering-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for layer in LAYERING {
        let CrateLayer { name, dir, deps } = layer;
        let crate_dir = root.join(dir);
        fs::create_dir_all(crate_dir.join("src")).expect("mkdir fixture crate");
        let mut manifest = format!("[package]\nname = \"{name}\"\n\n[dependencies]\n");
        for dep in *deps {
            manifest.push_str(&format!("{dep} = {{ workspace = true }}\n"));
        }
        fs::write(crate_dir.join("Cargo.toml"), manifest).expect("write manifest");
        fs::write(crate_dir.join("src").join("lib.rs"), "//! Fixture crate.\n")
            .expect("write lib.rs");
    }
    mutate(&root);
    let findings = layering_check(&root).expect("layering check runs");
    let _ = fs::remove_dir_all(&root);
    findings.iter().map(|f| f.excerpt.clone()).collect()
}

#[test]
fn layering_accepts_a_workspace_matching_the_table() {
    let excerpts = layering_findings_with("clean", |_| {});
    assert!(excerpts.is_empty(), "{excerpts:?}");
}

#[test]
fn layering_flags_a_manifest_back_edge() {
    let excerpts = layering_findings_with("backedge", |root| {
        let manifest = root.join("crates/util/Cargo.toml");
        let mut text = fs::read_to_string(&manifest).expect("read manifest");
        text.push_str("lunule-core = { workspace = true }\n");
        fs::write(&manifest, text).expect("write manifest");
    });
    assert!(
        excerpts
            .iter()
            .any(|e| e.contains("must not depend on `lunule-core`")),
        "{excerpts:?}"
    );
}

#[test]
fn layering_flags_an_undeclared_source_reference() {
    let excerpts = layering_findings_with("srcref", |root| {
        fs::write(
            root.join("crates/telemetry/src/lib.rs"),
            "//! Fixture.\npub fn f() { lunule_core::g(); }\n",
        )
        .expect("write lib.rs");
    });
    assert!(
        excerpts
            .iter()
            .any(|e| e.contains("references `lunule-core` without declaring it")),
        "{excerpts:?}"
    );
}

#[test]
fn layering_flags_a_crate_directory_missing_from_the_table() {
    let excerpts = layering_findings_with("rogue", |root| {
        fs::create_dir_all(root.join("crates/rogue")).expect("mkdir rogue");
    });
    assert!(
        excerpts
            .iter()
            .any(|e| e.contains("`crates/rogue` is not in the layering table")),
        "{excerpts:?}"
    );
}

// ---------------------------------------------------------------------------
// The real workspace is clean
// ---------------------------------------------------------------------------

#[test]
fn real_workspace_is_clean() {
    let root = workspace_root().expect("workspace root");
    let findings = analyze_workspace(&root).expect("analyze runs");
    assert!(findings.is_empty(), "analyze findings: {findings:?}");
}

// ---------------------------------------------------------------------------
// Fixture hygiene: the fixtures directory holds exactly the files the
// tests above reference (a renamed fixture would silently skip coverage).
// ---------------------------------------------------------------------------

#[test]
fn fixture_directory_matches_expectations() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let names: BTreeSet<String> = fs::read_dir(dir)
        .expect("fixtures dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let expected: BTreeSet<String> = ["lexer_tour.rs".to_string()].into();
    assert_eq!(names, expected);
}
