//! # wavesim-json — a minimal, dependency-free JSON library
//!
//! The simulator persists CARP traces, message scripts, and experiment
//! tables as JSON so results are shareable, versionable artifacts. The
//! build environment is fully offline (no crates.io), so this crate
//! provides the small JSON surface wavesim needs from scratch:
//!
//! * [`Value`] — an order-preserving JSON document model;
//! * [`Value::parse`] — a recursive-descent parser with precise errors;
//! * [`Writer`] — the one printer: it streams a document into a `String`
//!   as the caller walks it (`key`, `item`, `obj`, `arr` and the scalar
//!   writers), so a large document such as `wavesim analyze --json` is
//!   written without first being built as a tree, and allocates only as
//!   its output grows;
//! * [`Value::pretty`] / [`Value::compact`] — a tree printed through that
//!   writer (object keys keep insertion order, so output is reproducible);
//! * [`push_u64`] — the decimal integer writer the printer, the JSONL trace
//!   view and the metrics page share;
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

/// 2^53, the largest integer a JSON number (an `f64`) carries exactly:
/// every integer up to it is one, and [`Value::as_u64`] reads no larger.
pub const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

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
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= MAX_EXACT_INT => {
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
        Writer::compact(&mut out).value(self);
        out
    }

    /// Serializes with two-space indentation.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        Writer::pretty(&mut out).value(self);
        out
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

/// The pairs "00".."99" in order: pair `n` is bytes `2n..2n + 2`.
const DIGIT_PAIRS: &str = "\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `v` in decimal: the one integer writer of the JSON, JSONL and
/// metrics text. It divides by 100 and copies two digits a step, each a
/// `&str` slice of `DIGIT_PAIRS`: no `core::fmt` (~3× the cost of the
/// digits), and no UTF-8 check of what it wrote.
#[inline]
pub fn push_u64(out: &mut String, mut v: u64) {
    // Pairs below the leading one, least significant first: `u64::MAX`
    // has 20 digits, so at most 9 of them.
    let mut low = [0u8; 10];
    let mut n = 0;
    while v >= 100 {
        low[n] = (v % 100) as u8;
        v /= 100;
        n += 1;
    }
    // `v` is the leading one or two digits; one digit is the second half
    // of its pair "0d". Two constant-length pushes, not one of length 1
    // or 2: a copy of unknown length is a call to `memcpy`.
    let lead = 2 * v as usize;
    if v < 10 {
        out.push_str(&DIGIT_PAIRS[lead + 1..lead + 2]);
    } else {
        out.push_str(&DIGIT_PAIRS[lead..lead + 2]);
    }
    for &pair in low[..n].iter().rev() {
        let at = 2 * usize::from(pair);
        out.push_str(&DIGIT_PAIRS[at..at + 2]);
    }
}

fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null"); // JSON has no Inf/NaN
    } else if x.fract() == 0.0 && x.abs() < MAX_EXACT_INT {
        // Integral and exact; most numbers in a report are counts and
        // cycles. `-0.0` is not below zero, so it prints as `0`.
        if x < 0.0 {
            out.push('-');
        }
        push_u64(out, x.abs() as u64);
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

/// Prints a JSON document into a `String` as the caller walks it: the one
/// printer of the crate, which [`Value::pretty`] and [`Value::compact`]
/// go through too.
///
/// An object's members are each a [`key`](Writer::key) followed by one
/// value, an array's elements each an [`item`](Writer::item) followed by
/// one; a value is a scalar writer ([`null`](Writer::null),
/// [`bool`](Writer::bool), [`u64`](Writer::u64), [`f64`](Writer::f64),
/// [`str`](Writer::str)), a tree ([`value`](Writer::value)) or a nested
/// [`obj`](Writer::obj) / [`arr`](Writer::arr). The bytes are those
/// [`Value::pretty`] / [`Value::compact`] give for the same tree, and the
/// writer allocates nothing of its own: only its output grows.
///
/// ```
/// use wavesim_json::{Value, Writer};
///
/// let mut out = String::new();
/// Writer::compact(&mut out).obj(|w| {
///     w.key("id").str("E4");
///     w.key("rows").arr(|w| {
///         w.item().u64(1);
///         w.item().arr(|_| {});
///     });
/// });
/// assert_eq!(out, r#"{"id":"E4","rows":[1,[]]}"#);
/// let rows = Value::Arr(vec![1u64.into(), Value::Arr(vec![])]);
/// let tree = Value::obj([("id", "E4".into()), ("rows", rows)]);
/// assert_eq!(tree.compact(), out);
/// ```
pub struct Writer<'o> {
    out: &'o mut String,
    /// Two spaces per level and a line per member or element; compact
    /// output has no whitespace.
    pretty: bool,
    /// Containers open around the next value.
    depth: usize,
    /// Nothing is written yet in the innermost open container.
    first: bool,
}

impl<'o> Writer<'o> {
    /// A writer appending to `out` with two-space indentation, as
    /// [`Value::pretty`] prints.
    pub fn pretty(out: &'o mut String) -> Self {
        Self::new(out, true)
    }

    /// A writer appending to `out` with no whitespace, as
    /// [`Value::compact`] prints.
    pub fn compact(out: &'o mut String) -> Self {
        Self::new(out, false)
    }

    fn new(out: &'o mut String, pretty: bool) -> Self {
        Self {
            out,
            pretty,
            depth: 0,
            first: true,
        }
    }

    /// Starts the member `k` of the open object; write its value next.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.sep();
        write_str(self.out, k);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
        self
    }

    /// Starts the next element of the open array; write it next.
    pub fn item(&mut self) -> &mut Self {
        self.sep();
        self
    }

    /// Writes an object whose members `body` writes (`{}` if none).
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) {
        self.container(('{', '}'), body);
    }

    /// Writes an array whose elements `body` writes (`[]` if none).
    pub fn arr(&mut self, body: impl FnOnce(&mut Self)) {
        self.container(('[', ']'), body);
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes the number `x as f64`, as the tree's `Value::from(x)` prints.
    pub fn u64(&mut self, x: u64) {
        write_num(self.out, x as f64);
    }

    /// Writes a number; a non-finite one is `null`.
    pub fn f64(&mut self, x: f64) {
        write_num(self.out, x);
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, s: &str) {
        write_str(self.out, s);
    }

    /// Writes a whole tree.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Num(x) => self.f64(*x),
            Value::Str(s) => self.str(s),
            Value::Arr(xs) => self.arr(|w| {
                for x in xs {
                    w.item().value(x);
                }
            }),
            Value::Obj(pairs) => self.obj(|w| {
                for (k, v) in pairs {
                    w.key(k).value(v);
                }
            }),
        }
    }

    fn container(&mut self, (open, close): (char, char), body: impl FnOnce(&mut Self)) {
        self.out.push(open);
        let outer = std::mem::replace(&mut self.first, true);
        self.depth += 1;
        body(self);
        self.depth -= 1;
        if !self.first {
            self.newline();
        }
        self.first = outer;
        self.out.push(close);
    }

    /// The comma before every member or element but the first, then its
    /// line.
    fn sep(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline();
    }

    /// Starts a line at the current depth (pretty mode only).
    fn newline(&mut self) {
        const PAD: &str = "                                ";
        if self.pretty {
            self.out.push('\n');
            let mut width = 2 * self.depth;
            while width > 0 {
                let take = width.min(PAD.len());
                self.out.push_str(&PAD[..take]);
                width -= take;
            }
        }
    }
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
        let text = &self.src[start..self.pos];
        let x: f64 = text
            .parse()
            .map_err(|_| format!("invalid number at byte {start}"))?;
        // 2^53 + 1 is the one integer above 2^53 whose nearest-even f64 is
        // 2^53 itself, which `as_u64` accepts. Take the other nearest
        // neighbour, 2^53 + 2, so the literal stays outside the exact range.
        let digits = text.strip_prefix('-').unwrap_or(text);
        if x.abs() == MAX_EXACT_INT && digits.parse::<u64>() == Ok((1 << 53) + 1) {
            return Ok(Value::Num(x + x.signum() * 2.0));
        }
        Ok(Value::Num(x))
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
        let int = |text: &str| Value::parse(text).unwrap().as_u64();
        assert_eq!(int("9007199254740992"), Some(1 << 53));
        // 2^53 + 1 rounds (ties to even) onto 2^53 as an f64; above 2^53
        // nothing reads back as an integer.
        assert_eq!(int("9007199254740993"), None);
        assert_eq!(int("9007199254740994"), None);
        assert_eq!(int("18446744073709551615"), None);
        assert_eq!(
            Value::parse("-9007199254740993").unwrap(),
            Value::Num(-(2f64.powi(53) + 2.0))
        );
    }

    #[test]
    fn push_u64_writes_what_display_writes() {
        let check = |v: u64| {
            let mut out = String::from("x");
            push_u64(&mut out, v);
            assert_eq!(out[1..], v.to_string(), "{v}");
        };
        check(0);
        check(u64::MAX);
        let mut p = 1u64;
        for _ in 0..=19 {
            check(p - 1);
            check(p);
            check(p + 1);
            p = p.saturating_mul(10);
        }
        // A seeded sweep (splitmix64), each value shifted right by a
        // varying amount so every digit count comes up.
        let mut state = 0x5eed_u64;
        for _ in 0..100_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            check(z >> (z % 64));
        }
    }

    #[test]
    fn number_text_is_pinned() {
        let big = 2f64.powi(53);
        for (x, text) in [
            (-1.0, "-1"),
            (-17.0, "-17"),
            (-4_294_967_296.0, "-4294967296"),
            (-0.0, "0"),
            (big - 1.0, "9007199254740991"),
            (1.0 - big, "-9007199254740991"),
            (big, "9007199254740992"),
            (-big, "-9007199254740992"),
            (3.5, "3.5"),
            (-2.25, "-2.25"),
            (0.1, "0.1"),
            (1e-7, "0.0000001"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
        ] {
            assert_eq!(Value::Num(x).compact(), text, "{x}");
        }
    }

    /// Trees that reach every branch of the layout: empty and non-empty
    /// containers nested in each other, escapes in keys and strings, and
    /// the numbers whose text is special.
    fn layout_trees() -> Vec<Value> {
        let big = 2f64.powi(53);
        vec![
            Value::Null,
            Value::Arr(vec![]),
            Value::Obj(vec![]),
            Value::Arr(vec![Value::Arr(vec![]), Value::Obj(vec![])]),
            Value::obj([
                ("empty_arr", Value::Arr(vec![])),
                ("empty_obj", Value::Obj(vec![])),
                (
                    "nested",
                    Value::Arr(vec![
                        Value::obj([("a", Value::Arr(vec![1u64.into(), Value::Arr(vec![])]))]),
                        Value::Arr(vec![Value::Arr(vec![Value::Obj(vec![])])]),
                    ]),
                ),
                ("k\"ey\n", "q\"b\\s\r\t\u{1}\u{1f}é".into()),
                ("neg_zero", (-0.0).into()),
                ("big_plus_one", (big + 1.0).into()),
                ("big_plus_two", (big + 2.0).into()),
                ("neg_big_plus_two", (-big - 2.0).into()),
                ("nan", f64::NAN.into()),
                ("inf", f64::INFINITY.into()),
                ("neg_inf", f64::NEG_INFINITY.into()),
                ("frac", 0.1.into()),
                (
                    "flags",
                    Value::Arr(vec![true.into(), false.into(), Value::Null]),
                ),
            ]),
        ]
    }

    /// The bytes of [`layout_trees`], compact and pretty: separators,
    /// indentation, empty `[]` / `{}`, escapes and number text are pinned.
    #[test]
    fn layout_bytes_are_pinned() {
        let pinned: [(&str, &str); 5] = [
            ("null", "null"),
            ("[]", "[]"),
            ("{}", "{}"),
            ("[[],{}]", "[\n  [],\n  {}\n]"),
            (
                r#"{"empty_arr":[],"empty_obj":{},"nested":[{"a":[1,[]]},[[{}]]],"k\"ey\n":"q\"b\\s\r\t\u0001\u001fé","neg_zero":0,"big_plus_one":9007199254740992,"big_plus_two":9007199254740994,"neg_big_plus_two":-9007199254740994,"nan":null,"inf":null,"neg_inf":null,"frac":0.1,"flags":[true,false,null]}"#,
                r#"{
  "empty_arr": [],
  "empty_obj": {},
  "nested": [
    {
      "a": [
        1,
        []
      ]
    },
    [
      [
        {}
      ]
    ]
  ],
  "k\"ey\n": "q\"b\\s\r\t\u0001\u001fé",
  "neg_zero": 0,
  "big_plus_one": 9007199254740992,
  "big_plus_two": 9007199254740994,
  "neg_big_plus_two": -9007199254740994,
  "nan": null,
  "inf": null,
  "neg_inf": null,
  "frac": 0.1,
  "flags": [
    true,
    false,
    null
  ]
}"#,
            ),
        ];
        let trees = layout_trees();
        assert_eq!(trees.len(), pinned.len());
        for (tree, (compact, pretty)) in trees.iter().zip(pinned) {
            assert_eq!(tree.compact(), compact);
            assert_eq!(tree.pretty(), pretty);
            // What is printed parses back to the tree, but for the numbers
            // JSON cannot carry.
            if tree.get("nan").is_none() {
                assert_eq!(&Value::parse(compact).unwrap(), tree);
            }
        }
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
