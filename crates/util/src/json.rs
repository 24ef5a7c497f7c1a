//! A minimal JSON value model, parser, and writer.
//!
//! Result types that need to round-trip through JSON implement [`ToJson`]
//! and [`FromJson`]; the [`crate::impl_json_struct!`] and
//! [`crate::impl_json_enum!`] macros generate the field plumbing. Parsing
//! follows missing-field-keeps-default semantics: a struct is built from
//! `Default::default()` and only the keys present in the object overwrite
//! fields, so old dumps stay readable as types grow.

use std::collections::VecDeque;
use std::fmt;

/// A parsed JSON value.
///
/// Objects preserve insertion order so serialised output is deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an ordered key/value list.
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`] or [`FromJson`] conversions.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl JsonError {
    /// Creates an error from any displayable message.
    pub fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Renders `self` as a JSON value.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Builds `Self` from a JSON value.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(format!("trailing input at byte {}", p.pos)));
        }
        Ok(v)
    }

    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i, d| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            for _ in 0..step * (depth + 1) {
                out.push(' ');
            }
        }
        item(out, i, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        for _ in 0..step * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

#[expect(
    clippy::float_cmp,
    reason = "an exact integrality test: n == n.trunc() holds exactly when n has no fraction"
)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "guarded integral and |n| < 1e15, well inside i64 range"
)]
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(JsonError::new(format!(
                "unexpected input at byte {}",
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::new(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(JsonError::new(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| JsonError::new("short \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| JsonError::new("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::new("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are rare in our output; map
                            // lone surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(JsonError::new("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar, however many bytes it spans.
                    let rest = &self.bytes[self.pos..];
                    let s =
                        std::str::from_utf8(rest).map_err(|_| JsonError::new("invalid utf-8"))?;
                    let c = s.chars().next().ok_or_else(|| JsonError::new("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b) if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new("bad number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::new(format!("bad number '{text}'")))
    }
}

macro_rules! impl_json_int {
    ($($ty:ty),+) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> Json {
                    Json::Num(*self as f64)
                }
            }
            impl FromJson for $ty {
                fn from_json(v: &Json) -> Result<Self, JsonError> {
                    let n = v
                        .as_f64()
                        .ok_or_else(|| JsonError::new("expected number"))?;
                    Ok(n as $ty)
                }
            }
        )+
    };
}

// The expectations sit on a module that holds every expansion: the
// precision and sign lints fire for only some of the types.
#[expect(
    clippy::cast_precision_loss,
    reason = "JSON numbers are f64; exact below 2^53 by contract"
)]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "a saturating float-to-int conversion gives callers a total decode"
)]
mod int_impls {
    use super::{FromJson, Json, JsonError, ToJson};
    impl_json_int!(u8, u16, u32, u64, usize, i32, i64);
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Num(n) => Ok(*n),
            Json::Null => Ok(f64::NAN),
            _ => Err(JsonError::new("expected number")),
        }
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err(JsonError::new("expected bool")),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new("expected string"))
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for VecDeque<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for VecDeque<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

macro_rules! impl_json_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$idx.to_json()),+])
            }
        }
        impl<$($name: FromJson),+> FromJson for ($($name,)+) {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let items = v.as_arr().ok_or_else(|| JsonError::new("expected array"))?;
                let mut it = items.iter();
                Ok(($(
                    {
                        let _ = $idx;
                        $name::from_json(
                            it.next().ok_or_else(|| JsonError::new("tuple too short"))?,
                        )?
                    },
                )+))
            }
        }
    };
}

impl_json_tuple!(A: 0, B: 1);
impl_json_tuple!(A: 0, B: 1, C: 2);
impl_json_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_json_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Implements [`ToJson`]/[`FromJson`] for a struct by listing its fields.
///
/// Deserialisation starts from `Default::default()` and overwrites only the
/// keys present in the object, so fields absent from old dumps keep their
/// default values.
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(), self.$field.to_json()),)+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                let mut out = <$ty as Default>::default();
                $(
                    if let Some(field) = v.get(stringify!($field)) {
                        out.$field = $crate::json::FromJson::from_json(field)?;
                    }
                )+
                Ok(out)
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a fieldless enum as its variant
/// name string.
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ty { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let name = match self {
                    $(<$ty>::$variant => stringify!($variant),)+
                };
                $crate::json::Json::Str(name.to_string())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                let s = v
                    .as_str()
                    .ok_or_else(|| $crate::json::JsonError::new("expected string"))?;
                match s {
                    $(stringify!($variant) => Ok(<$ty>::$variant),)+
                    other => Err($crate::json::JsonError::new(format!(
                        "unknown variant '{other}'"
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_prints_round_trip() {
        let text = r#"{"a": [1, 2.5, -3], "b": {"c": "hi\n", "d": null}, "e": true}"#;
        let v = Json::parse(text).unwrap();
        let compact = v.to_string_compact();
        assert_eq!(Json::parse(&compact).unwrap(), v);
        let pretty = v.to_string_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        assert!(pretty.contains("\"c\": \"hi\\n\""));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::Num(3.0).to_string_compact(), "3");
        assert_eq!(Json::Num(3.25).to_string_compact(), "3.25");
        assert_eq!(Json::Num(-7.0).to_string_compact(), "-7");
    }

    #[derive(Debug, Default, PartialEq)]
    struct Demo {
        name: String,
        count: u64,
        ratio: f64,
        tags: Vec<String>,
    }

    crate::impl_json_struct!(Demo {
        name,
        count,
        ratio,
        tags
    });

    #[test]
    fn struct_macro_round_trips_and_defaults_missing_fields() {
        let d = Demo {
            name: "x".into(),
            count: 9,
            ratio: 0.5,
            tags: vec!["a".into()],
        };
        let s = d.to_json().to_string_pretty();
        assert!(s.contains("\"name\": \"x\""));
        let back = Demo::from_json(&Json::parse(&s).unwrap()).unwrap();
        assert_eq!(back, d);
        // Missing fields keep their defaults, like #[serde(default)].
        let partial = Demo::from_json(&Json::parse(r#"{"count": 4}"#).unwrap()).unwrap();
        assert_eq!(partial.count, 4);
        assert_eq!(partial.name, "");
    }

    #[test]
    fn tuples_and_options() {
        let t = ("k".to_string(), 1.5f64, 2u64);
        let back: (String, f64, u64) = FromJson::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        let none: Option<u32> = None;
        assert_eq!(none.to_json(), Json::Null);
        let some: Option<u32> = FromJson::from_json(&Json::Num(3.0)).unwrap();
        assert_eq!(some, Some(3));
    }
}
