//! # wavesim-json — a minimal, dependency-free JSON library
//!
//! The simulator persists CARP traces, message scripts, and experiment
//! tables as JSON so results are shareable, versionable artifacts. The
//! build environment is fully offline (no crates.io), so this crate
//! provides the small JSON surface wavesim needs from scratch:
//!
//! * [`Value`] — an order-preserving JSON document model;
//! * [`Value::parse`] — a recursive-descent parser with precise errors;
//! * [`Value::pretty`] / [`Value::compact`] — deterministic writers
//!   (object keys keep insertion order, so output is reproducible);
//! * [`table`] — the plain-text result [`table::Table`] that experiments
//!   and the trace analyzer print, with its JSON form and cell formatters.
//!
//! Numbers are stored as `f64`; integers up to 2^53 round-trip exactly,
//! which covers every id/cycle value the simulator serializes.

#![warn(missing_docs)]

use std::fmt::{self, Write as _};

pub mod table;

/// A parsed or constructed JSON value.
///
/// Objects preserve key insertion order (they are association lists, not
/// hash maps), so serialization is deterministic — a requirement for the
/// byte-identical experiment outputs the bench harness guarantees.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Builds an object from key/value pairs. An array of pairs builds it
    /// with one allocation for the pairs; a `Vec` of them costs a second.
    #[must_use]
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Value)>) -> Self {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object (`None` for other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if it is one exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// Parses a JSON document. Trailing non-whitespace is an error.
    ///
    /// # Errors
    /// Returns a message with the byte offset of the first problem; arrays
    /// and objects nested deeper than [`MAX_DEPTH`] are one.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            src: text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Serializes compactly (no whitespace).
    #[must_use]
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => write_num(out, *x),
            Value::Str(s) => write_str(out, s),
            Value::Arr(xs) => write_seq(out, indent, depth, xs.is_empty(), ('[', ']'), |out| {
                for (i, x) in xs.iter().enumerate() {
                    sep(out, indent, depth + 1, i > 0);
                    x.write(out, indent, depth + 1);
                }
            }),
            Value::Obj(pairs) => {
                write_seq(out, indent, depth, pairs.is_empty(), ('{', '}'), |out| {
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        sep(out, indent, depth + 1, i > 0);
                        write_str(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        v.write(out, indent, depth + 1);
                    }
                });
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.compact())
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Arr(xs) => xs.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(other)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::Num(x as f64)
    }
}

impl From<u32> for Value {
    fn from(x: u32) -> Self {
        Value::Num(f64::from(x))
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(xs: Vec<T>) -> Self {
        Value::Arr(xs.into_iter().map(Into::into).collect())
    }
}

fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null"); // JSON has no Inf/NaN
    } else if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
        // Integral and exact: decimal digits appended in place, no
        // `core::fmt`. Most numbers in a report are counts and cycles.
        let n = x as i64;
        if n < 0 {
            out.push('-');
        }
        let mut v = n.unsigned_abs();
        let mut tmp = [0u8; 20];
        let mut i = tmp.len();
        loop {
            i -= 1;
            tmp[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&tmp[i..]).expect("ascii digits"));
    } else {
        let _ = write!(out, "{x}"); // writing to a String cannot fail
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Everything escaped is ASCII, so the text between two escapes is
    // copied as one slice; a key or a name has none and is one copy.
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}"); // writing to a String cannot fail
        } else {
            out.push_str(escape);
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

/// Starts a line at `depth` levels of `indent` spaces (pretty mode only).
fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    const PAD: &str = "                                ";
    if let Some(n) = indent {
        out.push('\n');
        let mut width = n * depth;
        while width > 0 {
            let take = width.min(PAD.len());
            out.push_str(&PAD[..take]);
            width -= take;
        }
    }
}

fn sep(out: &mut String, indent: Option<usize>, depth: usize, comma: bool) {
    if comma {
        out.push(',');
    }
    newline(out, indent, depth);
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    empty: bool,
    brackets: (char, char),
    body: impl FnOnce(&mut String),
) {
    out.push(brackets.0);
    if !empty {
        body(out);
        newline(out, indent, depth);
    }
    out.push(brackets.1);
}

/// Deepest nesting of arrays and objects [`Value::parse`] accepts. The
/// parser recurses once per level, so the bound is what keeps a hostile
/// file (200 kB of `[`) an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(&mut self, inner: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "JSON nested deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(xs));
        }
        loop {
            self.skip_ws();
            xs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(xs));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not produced by our writer;
                            // lone surrogates map to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` only ever advances by
                    // whole scalars or ASCII bytes, so it is a char boundary.
                    let c = self.src[self.pos..].chars().next().expect("non-empty");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = Value::parse(text).unwrap();
            assert_eq!(v.compact(), text);
        }
    }

    #[test]
    fn nested_roundtrip() {
        let v = Value::obj(vec![
            ("id", "E4".into()),
            (
                "rows",
                Value::Arr(vec![vec!["1", "2"].into(), Value::Arr(vec![])]),
            ),
            ("n", 42u64.into()),
        ]);
        let compact = v.compact();
        assert_eq!(compact, r#"{"id":"E4","rows":[["1","2"],[]],"n":42}"#);
        assert_eq!(Value::parse(&compact).unwrap(), v);
        assert_eq!(Value::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn accessors_and_indexing() {
        let v = Value::parse(r#"{"id":"E4","rows":[[1,2]],"ok":true}"#).unwrap();
        assert_eq!(v["id"], "E4");
        assert_eq!(v["rows"].as_array().unwrap().len(), 1);
        assert_eq!(v["rows"][0][1].as_u64(), Some(2));
        assert_eq!(v["ok"].as_bool(), Some(true));
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn string_escapes() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}".into());
        let text = v.compact();
        assert_eq!(Value::parse(&text).unwrap(), v);
        assert_eq!(Value::parse(r#""A\/""#).unwrap(), Value::Str("A/".into()));
    }

    #[test]
    fn multibyte_scalars_roundtrip() {
        // 2-, 3- and 4-byte scalars, adjacent to escapes and to each other.
        let v = Value::Str("é\"→\n𝄞𝄞\u{10ffff}z".into());
        let text = v.compact();
        assert_eq!(Value::parse(&text).unwrap(), v);
        assert_eq!(
            Value::parse("{\"ключ\": [\"値\", \"😀\"]}").unwrap(),
            Value::obj(vec![(
                "ключ",
                Value::Arr(vec![Value::Str("値".into()), Value::Str("😀".into())])
            )])
        );
        // An escape whose hex digits are cut short by a multi-byte scalar
        // is an error, not a mis-sliced string.
        assert!(Value::parse("\"\\u12é\"").is_err());
    }

    #[test]
    fn large_integers_roundtrip() {
        let v = Value::from(1u64 << 52);
        let text = v.compact();
        assert_eq!(text, "4503599627370496");
        assert_eq!(Value::parse(&text).unwrap().as_u64(), Some(1 << 52));
    }

    #[test]
    fn garbage_rejected() {
        assert!(Value::parse("not json").is_err());
        assert!(Value::parse("{\"a\":}").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{} trailing").is_err());
        assert!(Value::parse("\"open").is_err());
        // Nesting is bounded: a hostile file is an error, not a stack overflow.
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Value::parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(
            Value::parse(&nest(MAX_DEPTH + 1)).unwrap_err(),
            "JSON nested deeper than 128 at byte 128"
        );
        assert_eq!(
            Value::parse(&"[{\"a\":".repeat(100_000)).unwrap_err(),
            "JSON nested deeper than 128 at byte 384"
        );
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v["a"][0].as_u64(), Some(1));
    }

    #[test]
    fn unicode_passthrough() {
        let v = Value::Str("ñandú — ∞".into());
        assert_eq!(Value::parse(&v.compact()).unwrap(), v);
    }
}
