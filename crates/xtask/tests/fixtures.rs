//! Integration tests for the analysis passes: the lexer tour (lexed,
//! never compiled), the layering checker on a synthetic workspace, and
//! the real workspace, which must be clean.

use std::fs;
use std::path::PathBuf;

use xtask::analyze::{analyze_workspace, layering_check, CrateLayer, LAYERING};
use xtask::lexer::{lex, TokKind};
use xtask::workspace_root;

const LEXER_TOUR: &str = r###"//! A tour of the token shapes the lexer must classify without ever
//! confusing code with text.

/* A nested /* block */ comment is one token. */

pub fn tour<'a>(s: &'a str) -> usize {
    let _plain = "a \" escaped quote and a // non-comment";
    let _raw = r#"raw "inner" text with # marks"#;
    let _bytes = b"byte string";
    let _braw = br##"raw # bytes"##;
    let _quote = '\'';
    let _newline = '\n';
    let r#type = 1u64 << 3;
    let _exp = 2.5e-3_f32;
    let _hex = 0x1f32; // an integer: f32 here is hex digits, not a suffix
    let _range = 0..10;
    let _static: &'static str = "done";
    s.len() + r#type as usize
}
"###;

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

    // `2.5e-3_f32` is one float token, suffix included.
    let exp = toks
        .iter()
        .find(|t| t.text == "2.5e-3_f32")
        .expect("exponent literal present");
    assert_eq!(exp.kind, TokKind::Float);

    // `0..10` produced a range punct, not a float.
    assert!(toks
        .iter()
        .any(|t| t.kind == TokKind::Punct && t.text == ".."));
}

// ---------------------------------------------------------------------------
// Crate-layering checker (synthetic workspace)
// ---------------------------------------------------------------------------

/// Materialises a minimal fake workspace matching [`LAYERING`], whose
/// sources name every dependency, applies `mutate` to it, runs
/// [`layering_check`], cleans up, and returns the findings' excerpts.
fn layering_findings_with(tag: &str, mutate: impl Fn(&PathBuf)) -> Vec<String> {
    let root = std::env::temp_dir().join(format!("xtask-layering-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for layer in LAYERING {
        let CrateLayer { name, dir, deps } = layer;
        let crate_dir = root.join(dir);
        fs::create_dir_all(crate_dir.join("src")).expect("mkdir fixture crate");
        let mut manifest = format!("[package]\nname = \"{name}\"\n\n[dependencies]\n");
        let mut lib = "//! Fixture crate.\n".to_string();
        for dep in *deps {
            manifest.push_str(&format!("{dep} = {{ workspace = true }}\n"));
            lib.push_str(&format!("use {} as _;\n", dep.replace('-', "_")));
        }
        fs::write(crate_dir.join("Cargo.toml"), manifest).expect("write manifest");
        fs::write(crate_dir.join("src").join("lib.rs"), lib).expect("write lib.rs");
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
            "//! Fixture.\npub fn f() { lunule_core::g(); lunule_util::h(); }\n",
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
fn layering_flags_a_dependency_its_sources_do_not_name() {
    let excerpts = layering_findings_with("unnamed", |root| {
        fs::write(
            root.join("crates/core/src/lib.rs"),
            "//! Fixture.\nuse lunule_namespace as _;\nuse lunule_util as _;\n",
        )
        .expect("write lib.rs");
    });
    assert_eq!(
        excerpts,
        ["`lunule-core` depends on `lunule-telemetry`, which no file under its src/ names"]
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
