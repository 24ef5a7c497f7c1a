//! A minimal, std-only Rust lexer for the static-analysis passes.
//!
//! The goal is not full fidelity with rustc's lexer grammar but *token
//! classification that can never confuse code with text*: line and nested
//! block comments, normal/byte/raw string literals, char literals vs
//! lifetimes, identifiers (including raw `r#ident`s), numeric literals
//! (with suffix, exponent and tuple-index handling), and punctuation
//! (multi-character operators emitted as single tokens so passes can match
//! `==`, `::` or `..=` directly).
//!
//! Every token records the 1-based line it *starts* on, so findings point
//! at real source locations, and comment/string tokens are kept in the
//! stream (rather than discarded) so passes can both ignore them for code
//! rules and inspect them for waiver comments.

/// Classification of one lexed token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (includes raw identifiers like `r#type`).
    Ident,
    /// Lifetime such as `'a` or `'static` (not a char literal).
    Lifetime,
    /// Integer literal (`42`, `0xFF_u8`, `1_000`).
    Int,
    /// Floating-point literal (`1.0`, `1e-9`, `0.5_f64`).
    Float,
    /// Normal or byte string literal (`"…"`, `b"…"`, `c"…"`).
    Str,
    /// Raw string literal (`r"…"`, `r#"…"#`, `br##"…"##`).
    RawStr,
    /// Char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Line comment, including doc comments (`//`, `///`, `//!`).
    LineComment,
    /// Block comment, possibly nested (`/* /* … */ */`).
    BlockComment,
    /// Punctuation; multi-character operators are one token (`==`, `..=`).
    Punct,
}

/// One token: its kind, the exact source text, and the 1-based line the
/// token starts on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tok<'a> {
    /// Token classification.
    pub kind: TokKind,
    /// Source text of the token (for multi-line tokens, all of it).
    pub text: &'a str,
    /// 1-based line number of the token's first character.
    pub line: usize,
}

impl Tok<'_> {
    /// True for tokens that are not code (comments).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

/// Multi-character punctuation, longest first so maximal munch works.
const PUNCTS: &[&str] = &[
    "..=", "...", "<<=", ">>=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "<<",
    ">>", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Lexes `src` into a token stream. Whitespace is dropped; comments are
/// kept as tokens. The lexer is total: any byte sequence produces a token
/// stream (unterminated literals run to end of input).
pub fn lex(src: &str) -> Vec<Tok<'_>> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        toks: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    toks: Vec<Tok<'a>>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Tok<'a>> {
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            let next = self.peek(1);
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if b.is_ascii_whitespace() => self.pos += 1,
                b'/' if next == Some(b'/') => self.line_comment(),
                b'/' if next == Some(b'*') => self.block_comment(),
                b'"' => self.string(self.pos),
                b'\'' => self.char_or_lifetime(),
                _ if is_ident_start(b) => self.ident_or_prefixed_literal(),
                _ if b.is_ascii_digit() => self.number(),
                _ => self.punct(),
            }
        }
        self.toks
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, start: usize, line: usize) {
        self.toks.push(Tok {
            kind,
            text: &self.src[start..self.pos],
            line,
        });
    }

    fn line_comment(&mut self) {
        let (start, line) = (self.pos, self.line);
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
        self.push(TokKind::LineComment, start, line);
    }

    fn block_comment(&mut self) {
        let (start, line) = (self.pos, self.line);
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.bytes.len() && depth > 0 {
            match (self.bytes[self.pos], self.peek(1)) {
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (b'\n', _) => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.push(TokKind::BlockComment, start, line);
    }

    /// Consumes a normal/byte string starting at its opening quote; `start`
    /// is where the token began (possibly at a `b`/`c` prefix).
    fn string(&mut self, start: usize) {
        let line = self.line;
        self.pos += 1; // opening quote
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => self.pos += 2,
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.push(TokKind::Str, start, line);
    }

    /// Consumes a raw string; `self.pos` is at the `r`, `hash_pos` at the
    /// first `#` or the quote. `start` covers an optional `b` prefix.
    fn raw_string(&mut self, start: usize) {
        let line = self.line;
        self.pos += 1; // the `r`
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'"' && self.closes_raw(hashes) {
                self.pos += 1 + hashes;
                break;
            }
            if self.bytes[self.pos] == b'\n' {
                self.line += 1;
            }
            self.pos += 1;
        }
        self.push(TokKind::RawStr, start, line);
    }

    fn closes_raw(&self, hashes: usize) -> bool {
        (0..hashes).all(|k| self.bytes.get(self.pos + 1 + k) == Some(&b'#'))
    }

    /// `'a` (lifetime) vs `'x'` / `'\n'` (char literal). A lifetime is a
    /// quote followed by an identifier run that is *not* closed by another
    /// quote; everything else starting with `'` is a char literal.
    fn char_or_lifetime(&mut self) {
        let (start, line) = (self.pos, self.line);
        let first = self.peek(1);
        if first.is_some_and(is_ident_start) {
            // Find the end of the ident run; a closing quote right after a
            // *single-char* run means a char literal like 'a'.
            let mut j = self.pos + 1;
            while self.bytes.get(j).copied().is_some_and(is_ident_continue) {
                j += 1;
            }
            if self.bytes.get(j) != Some(&b'\'') {
                self.pos = j;
                self.push(TokKind::Lifetime, start, line);
                return;
            }
        }
        // Char literal: consume to the closing quote, honouring escapes.
        self.pos += 1;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => self.pos += 2,
                b'\'' => {
                    self.pos += 1;
                    break;
                }
                b'\n' => break, // unterminated; don't swallow the file
                _ => self.pos += 1,
            }
        }
        self.push(TokKind::Char, start, line);
    }

    /// An identifier, or a literal introduced by a prefix letter: `r"…"`,
    /// `r#"…"#` (raw strings), `r#ident` (raw identifier), `b"…"`, `b'…'`,
    /// `br#"…"#`, `c"…"`.
    fn ident_or_prefixed_literal(&mut self) {
        let (start, line) = (self.pos, self.line);
        let b = self.bytes[self.pos];
        let next = self.peek(1);
        // Raw string: r" or r#…" (but r#ident is a raw identifier).
        if b == b'r' || b == b'b' || b == b'c' {
            let (r_off, is_br) = if b == b'b' && next == Some(b'r') {
                (1, true)
            } else {
                (0, false)
            };
            if is_br || b == b'r' {
                if self.raw_quote_after(self.pos + r_off + 1) {
                    if is_br {
                        self.pos += 1; // skip the `b`; raw_string eats the `r`
                    }
                    self.raw_string(start);
                    return;
                }
                // r#ident — raw identifier: skip `r#`, lex the ident run.
                if b == b'r' && next == Some(b'#') && self.peek(2).is_some_and(is_ident_start) {
                    self.pos += 2;
                    while self.peek(0).is_some_and(is_ident_continue) {
                        self.pos += 1;
                    }
                    self.push(TokKind::Ident, start, line);
                    return;
                }
            }
            if (b == b'b' || b == b'c') && next == Some(b'"') {
                self.pos += 1; // prefix; string() eats the quote
                self.string(start);
                return;
            }
            if b == b'b' && next == Some(b'\'') {
                // Byte literal b'…': treat like a char literal.
                self.pos += 1;
                self.char_or_lifetime();
                // Fix up: char_or_lifetime pushed with its own start; widen
                // the token to include the prefix.
                if let Some(last) = self.toks.last_mut() {
                    last.text = &self.src[start..start + 1 + last.text.len()];
                }
                return;
            }
        }
        while self.peek(0).is_some_and(is_ident_continue) {
            self.pos += 1;
        }
        self.push(TokKind::Ident, start, line);
    }

    /// True when position `p` starts `#*"` (the hash-run/quote of a raw
    /// string opener).
    fn raw_quote_after(&self, mut p: usize) -> bool {
        while self.bytes.get(p) == Some(&b'#') {
            p += 1;
        }
        self.bytes.get(p) == Some(&b'"')
    }

    fn number(&mut self) {
        let (start, line) = (self.pos, self.line);
        let mut float = false;
        let radix_prefix = self.bytes[self.pos] == b'0'
            && matches!(self.peek(1), Some(b'x') | Some(b'o') | Some(b'b'));
        if radix_prefix {
            self.pos += 2;
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
            {
                self.pos += 1;
            }
            self.push(TokKind::Int, start, line);
            return;
        }
        while self
            .peek(0)
            .is_some_and(|c| c.is_ascii_digit() || c == b'_')
        {
            self.pos += 1;
        }
        // Fractional part: a dot NOT followed by another dot (range) or an
        // identifier start (method call / tuple field access).
        if self.peek(0) == Some(b'.')
            && !matches!(self.peek(1), Some(b'.'))
            && !self.peek(1).is_some_and(is_ident_start)
        {
            float = true;
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_digit() || c == b'_')
            {
                self.pos += 1;
            }
        }
        // Exponent.
        if matches!(self.peek(0), Some(b'e') | Some(b'E')) {
            let sign = matches!(self.peek(1), Some(b'+') | Some(b'-'));
            let digit_at = if sign { 2 } else { 1 };
            if self.peek(digit_at).is_some_and(|c| c.is_ascii_digit()) {
                float = true;
                self.pos += digit_at + 1;
                while self
                    .peek(0)
                    .is_some_and(|c| c.is_ascii_digit() || c == b'_')
                {
                    self.pos += 1;
                }
            }
        }
        // Type suffix (u32, f64, usize, …).
        let suffix_start = self.pos;
        while self.peek(0).is_some_and(is_ident_continue) {
            self.pos += 1;
        }
        if self.src[suffix_start..self.pos].starts_with('f') {
            float = true;
        }
        self.push(
            if float { TokKind::Float } else { TokKind::Int },
            start,
            line,
        );
    }

    fn punct(&mut self) {
        let (start, line) = (self.pos, self.line);
        let rest = &self.src[self.pos..];
        for p in PUNCTS {
            if rest.starts_with(p) {
                self.pos += p.len();
                self.push(TokKind::Punct, start, line);
                return;
            }
        }
        self.pos += 1;
        self.push(TokKind::Punct, start, line);
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        assert_eq!(
            kinds("let x = a::b();"),
            vec![
                (TokKind::Ident, "let"),
                (TokKind::Ident, "x"),
                (TokKind::Punct, "="),
                (TokKind::Ident, "a"),
                (TokKind::Punct, "::"),
                (TokKind::Ident, "b"),
                (TokKind::Punct, "("),
                (TokKind::Punct, ")"),
                (TokKind::Punct, ";"),
            ]
        );
    }

    #[test]
    fn comments_are_tokens_with_lines() {
        let toks = lex("a // one\n/* two\nthree */ b");
        assert_eq!(
            toks[0],
            Tok {
                kind: TokKind::Ident,
                text: "a",
                line: 1
            }
        );
        assert_eq!(toks[1].kind, TokKind::LineComment);
        assert_eq!(toks[1].line, 1);
        assert_eq!(toks[2].kind, TokKind::BlockComment);
        assert_eq!(toks[2].line, 2);
        assert_eq!(
            toks[3],
            Tok {
                kind: TokKind::Ident,
                text: "b",
                line: 3
            }
        );
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("/* a /* b */ c */ x");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, TokKind::BlockComment);
        assert_eq!(toks[0].text, "/* a /* b */ c */");
        assert_eq!(toks[1].text, "x");
    }

    #[test]
    fn strings_and_raw_strings() {
        let toks = lex(r####"let s = "a\"b"; let r = r#"raw "inner" text"#;"####);
        let strs: Vec<_> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Str | TokKind::RawStr))
            .collect();
        assert_eq!(strs.len(), 2);
        assert_eq!(strs[0].kind, TokKind::Str);
        assert_eq!(strs[1].kind, TokKind::RawStr);
        assert_eq!(strs[1].text, r###"r#"raw "inner" text"#"###);
    }

    #[test]
    fn multiline_raw_string_tracks_lines() {
        let toks = lex("r\"line\nbreak\" after");
        assert_eq!(toks[0].kind, TokKind::RawStr);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].text, "after");
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks =
            lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let s: &'static str = \"\"; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 3, "{lifetimes:?}");
        assert_eq!(lifetimes[2].text, "'static");
        assert_eq!(chars.len(), 2, "{chars:?}");
        assert_eq!(chars[0].text, "'x'");
        assert_eq!(chars[1].text, "'\\n'");
    }

    #[test]
    fn byte_literals() {
        let toks = lex(r##"let a = b'x'; let s = b"bytes"; let r = br#"raw"#;"##);
        assert_eq!(toks[3].kind, TokKind::Char);
        assert_eq!(toks[3].text, "b'x'");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "b\"bytes\""));
        assert!(toks.iter().any(|t| t.kind == TokKind::RawStr));
    }

    #[test]
    fn raw_identifiers() {
        let toks = lex("let r#type = 1;");
        assert_eq!(toks[1].kind, TokKind::Ident);
        assert_eq!(toks[1].text, "r#type");
    }

    #[test]
    fn numbers_ints_floats_ranges() {
        let toks = lex("1 1.5 1e-9 0.5_f64 0xFF_u8 7u32 0..10 1.max(2) x.0");
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Int | TokKind::Float))
            .map(|t| (t.kind, t.text))
            .collect();
        assert_eq!(
            nums,
            vec![
                (TokKind::Int, "1"),
                (TokKind::Float, "1.5"),
                (TokKind::Float, "1e-9"),
                (TokKind::Float, "0.5_f64"),
                (TokKind::Int, "0xFF_u8"),
                (TokKind::Int, "7u32"),
                (TokKind::Int, "0"),
                (TokKind::Int, "10"),
                (TokKind::Int, "1"),
                (TokKind::Int, "2"),
                (TokKind::Int, "0"),
            ]
        );
        // `0..10` produced a `..` punct, `1.max` kept the dot separate.
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Punct && t.text == ".."));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "max"));
    }

    #[test]
    fn multichar_puncts_are_single_tokens() {
        let texts: Vec<&str> = lex("a == b != c ..= d => e -> f :: g")
            .into_iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text)
            .collect();
        assert_eq!(texts, vec!["==", "!=", "..=", "=>", "->", "::"]);
    }

    #[test]
    fn unterminated_literals_do_not_hang() {
        assert!(!lex("let s = \"unterminated").is_empty());
        assert!(!lex("let s = r#\"unterminated").is_empty());
        assert!(!lex("/* unterminated").is_empty());
    }
}
